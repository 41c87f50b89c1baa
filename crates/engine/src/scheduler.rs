//! The scheduler: turns a [`ScenarioGrid`] into a [`Report`] by driving an abstract
//! execution backend.
//!
//! The [`Sweep`] builder owns everything *around* execution — the store probe, cost-model
//! calibration and LPT ordering, streaming aggregation, canonical report order — and hands
//! the actual running of cells to an [`ExecBackend`] as one cost-ordered [`CellShard`]:
//! [`InProcessBackend`] shards it over this process's work-stealing pool
//! ([`crate::pool`]), [`crate::backend::NetworkBackend`] stripes it over `sweep --serve`
//! daemons. Because those concerns compose *outside* the backend, the result store,
//! streaming mode, and cost ordering work identically no matter what executes the cells.
//!
//! Determinism: a cell's seed is a pure function of its identity ([`Scenario::cell_seed`],
//! built on [`local_runtime::mix_seed`]) and backends emit results keyed by shard index, so
//! a sweep with `threads = 64` — or two daemons — produces byte-identical results
//! to `threads = 1` (wall-clock fields aside).
//!
//! The module also holds the fleet side of scheduling: `FairScheduler`, the
//! deficit-round-robin stripe queue from which the remote dispatcher (`backend::dispatch`)
//! deals stripes to daemon peers, fair by predicted cost between clients.

use crate::backend::{CellShard, ExecBackend, InProcessBackend};
use crate::cost::CostModel;
use crate::progress::ProgressMeter;
use crate::report::{CellResult, Report, SummaryAccumulator};
use crate::scenario::{Scenario, ScenarioGrid};
use crate::store::ResultStore;
use local_graphs::{GraphParams, InstanceKey};
use local_obs::metrics as obs_metrics;
use local_runtime::{Graph, Session};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Execution settings of one sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepConfig {
    /// Worker threads (1 = fully sequential, no worker threads spawned). 0 means "use the
    /// machine's available parallelism".
    pub threads: usize,
    /// The incremental result store (typically a [`crate::store::BinaryStore`]): cells
    /// whose key is already present are served from disk, freshly executed cells are
    /// written back. `None` disables result persistence entirely.
    pub store: Option<Arc<dyn ResultStore>>,
    /// Stream results instead of accumulating them: every executed cell goes straight to
    /// the store and is folded into the summaries, and [`Report::cells`] stays empty — the
    /// sweep's memory footprint no longer grows with the grid. Requires `store`.
    pub stream: bool,
}

impl SweepConfig {
    /// A configuration with the given thread count (no store, no streaming); 0 means "use
    /// the machine's available parallelism", as documented on [`SweepConfig::threads`].
    pub fn with_threads(threads: usize) -> Self {
        SweepConfig { threads, store: None, stream: false }
    }

    /// Attaches a result store.
    pub fn with_store(mut self, store: Arc<dyn ResultStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Enables streaming mode (cells go to the store, not the report).
    pub fn streaming(mut self) -> Self {
        self.stream = true;
        self
    }
}

/// A generated graph instance, shared across the cells that run on it.
#[derive(Debug)]
pub struct Instance {
    /// The key that generated this instance.
    pub key: InstanceKey,
    /// The graph.
    pub graph: Graph,
    /// Ground-truth global parameters (the correct guesses for non-uniform baselines).
    pub params: GraphParams,
    /// Wall-clock time it took to generate the instance, in microseconds (the "instance
    /// generation" phase of the `--profile` report).
    pub gen_micros: u64,
}

impl Instance {
    /// Realizes the instance a key names.
    pub fn generate(key: InstanceKey) -> Self {
        // `span` disarms itself and `label` returns NONE when obs is disabled.
        let _span = local_obs::span(obs_metrics::INSTANCE_GEN, local_obs::label(key.family.name()));
        let started = Instant::now();
        let (graph, params) = key.realize();
        Instance { key, graph, params, gen_micros: started.elapsed().as_micros() as u64 }
    }
}

/// A configured sweep: the grid, the execution backend, and everything that composes
/// around it (result store, streaming, cost ordering).
///
/// This is the engine's primary entry point; [`run_grid`] is a thin wrapper over it. The
/// builder separates *what to run* (the grid) from *how cells execute* (the backend) from
/// *what happens around execution* (store probe, LPT ordering, streaming aggregation), so
/// every combination composes:
///
/// ```
/// use local_engine::{backend::InProcessBackend, workload, ScenarioGrid, Sweep};
/// use local_graphs::Family;
///
/// let grid = ScenarioGrid::new()
///     .problems([workload("mis")])
///     .families([Family::SparseGnp])
///     .sizes([48usize])
///     .replicates(2);
/// let report = Sweep::over(&grid).backend(InProcessBackend::new(2)).run();
/// assert_eq!(report.cell_count, 2);
/// ```
pub struct Sweep<'a> {
    grid: &'a ScenarioGrid,
    backend: Box<dyn ExecBackend + 'a>,
    store: Option<Arc<dyn ResultStore>>,
    stream: bool,
    progress: Option<ProgressMeter>,
}

impl<'a> Sweep<'a> {
    /// A sweep over `grid` with the default backend (in-process, available parallelism),
    /// no store, and no streaming.
    pub fn over(grid: &'a ScenarioGrid) -> Self {
        Sweep {
            grid,
            backend: Box::new(InProcessBackend::new(0)),
            store: None,
            stream: false,
            progress: None,
        }
    }

    /// Sets the execution backend.
    pub fn backend(mut self, backend: impl ExecBackend + 'a) -> Self {
        self.backend = Box::new(backend);
        self
    }

    /// Attaches an incremental result store: hits are served from disk (and calibrate the
    /// cost model), fresh results are written back — no matter which backend executed them.
    pub fn store(mut self, store: Arc<dyn ResultStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Enables streaming mode: executed cells go straight to the store and fold into the
    /// summaries at their canonical position; [`Report::cells`] stays empty and memory
    /// stays flat no matter how large the grid is. Requires a store.
    pub fn streaming(mut self) -> Self {
        self.stream = true;
        self
    }

    /// Attaches a live progress meter: the sweep reports the grid size, cache hits, and
    /// CostModel predictions to it at start, then each completed cell as it lands.
    pub fn progress(mut self, meter: ProgressMeter) -> Self {
        self.progress = Some(meter);
        self
    }

    /// Applies a [`SweepConfig`]: an [`InProcessBackend`] with its thread count, plus its
    /// store and streaming settings.
    pub fn config(mut self, cfg: &SweepConfig) -> Self {
        self.backend = Box::new(InProcessBackend::new(cfg.threads));
        self.store = cfg.store.clone();
        self.stream = cfg.stream;
        self
    }

    /// Runs the sweep. See [`Sweep::run_calibrated`] for the full pipeline description.
    pub fn run(self) -> Report {
        self.run_calibrated().0
    }

    /// Runs the sweep and also returns the merged, fully calibrated [`CostModel`].
    ///
    /// The pipeline is store- and cost-aware, and backend-agnostic:
    ///
    /// 1. **Store probe.** With a store attached, every cell's key is looked up first; hits
    ///    are served from disk (byte-identical to re-execution — seeds are pure functions
    ///    of cell identity) and *calibrate the cost model* with their observed wall times.
    ///    In streaming mode the probe is **columnar**: hits fold their summary columns
    ///    straight into the accumulator, and no hit ever materializes a [`CellResult`] row.
    /// 2. **Cost-ordered sharding.** Missed cells are ordered slowest-first under the
    ///    [`CostModel`] (LPT scheduling minimizes makespan for any pulling executor) and
    ///    packaged into one [`CellShard`] for the backend.
    /// 3. **Backend execution.** The backend emits each result with its shard index; the
    ///    sweep scatters them to canonical positions (collecting mode) or folds them into
    ///    pre-registered summaries (streaming mode), so neither completion order nor the
    ///    choice of backend can perturb the report. Freshly executed cells are written back
    ///    to the store as they arrive.
    /// 4. **Calibration merge.** Observations flow home from every worker — thread or
    ///    subprocess — and are merged into the model, which a caller can carry into its
    ///    next sweep (and which the store persists implicitly via stored wall times).
    pub fn run_calibrated(self) -> (Report, CostModel) {
        // Streaming stores cells nowhere but the store; without one they would be silently
        // lost, so refuse loudly up front (the CLI rejects the combination at parse time).
        assert!(
            !self.stream || self.store.is_some(),
            "streaming mode requires a result store: streamed cells live there, not in memory"
        );
        let started = Instant::now();
        let grid = self.grid;
        let cells = grid.cells();

        // Streaming pre-registers every group in canonical order before anything folds, so
        // completion order cannot reorder the report.
        let mut streaming = if self.stream {
            let mut accumulator = SummaryAccumulator::new();
            for cell in &cells {
                accumulator.register(cell.problem.name(), cell.family.name());
            }
            Some(accumulator)
        } else {
            None
        };

        // Phase 1: probe the incremental store and calibrate the cost model with the hits.
        // Streaming probes columns only — hits fold and are dropped, never materialized as
        // rows; collecting mode keeps the full rows for the report.
        let mut cached: Vec<Option<CellResult>> = vec![None; cells.len()];
        let mut hit = vec![false; cells.len()];
        let mut model = CostModel::new();
        if let Some(store) = &self.store {
            for (i, cell) in cells.iter().enumerate() {
                match &mut streaming {
                    Some(accumulator) => {
                        if let Some(columns) = store.load_columns(cell, grid.base_seed) {
                            model.observe_scenario(cell, columns.wall_micros);
                            accumulator.fold_columns_at(
                                i,
                                cell.problem.name(),
                                cell.family.name(),
                                &columns,
                            );
                            hit[i] = true;
                        }
                    }
                    None => {
                        if let Some(result) = store.load(cell, grid.base_seed) {
                            model.observe(&result);
                            cached[i] = Some(result);
                            hit[i] = true;
                        }
                    }
                }
            }
        }
        let cache_hits = hit.iter().filter(|&&h| h).count();

        // Phase 2: order the missed cells slowest-first and package them as one shard.
        // `distinct_instances` counts the keys the backend will have to realize; keys are
        // pure functions of cell identity, so no instance is generated here.
        let missed: Vec<usize> = (0..cells.len()).filter(|&i| !hit[i]).collect();
        let distinct_instances = missed
            .iter()
            .map(|&i| cells[i].instance_key(grid.base_seed))
            .collect::<BTreeSet<InstanceKey>>()
            .len();
        let order = model.order_slowest_first(&cells, missed);
        let shard =
            CellShard::new(grid.base_seed, order.iter().map(|&i| cells[i].clone()).collect());
        if local_obs::is_enabled() {
            local_obs::counter_add(obs_metrics::CACHE_HITS, cache_hits as u64);
        }
        if let Some(meter) = &self.progress {
            let predicted: Vec<f64> = order.iter().map(|&i| model.predict(&cells[i])).collect();
            meter.begin(cells.len(), cache_hits, predicted);
        }
        let progress = self.progress.clone();
        let tick = |k: usize| {
            if let Some(meter) = &progress {
                meter.cell_done(k);
            }
        };

        // Phase 3: hand the shard to the backend; write fresh results to the store and
        // land them at their canonical position as they are emitted.
        let persist = |k: usize, result: &CellResult| {
            if let Some(store) = &self.store {
                let cell = &cells[order[k]];
                if let Err(e) = store.store(cell, grid.base_seed, result) {
                    eprintln!("result store: cannot store {}: {e}", cell.label());
                }
            }
        };

        if let Some(accumulator) = streaming {
            // Streaming: hits already folded columnar during the probe; fold fresh cells as
            // they finish, and drop them.
            let folded = std::sync::atomic::AtomicUsize::new(0);
            let accumulator = Mutex::new(accumulator);
            self.backend.run_shard(&shard, &|k, result| {
                persist(k, &result);
                // Folded under the cell's canonical grid index, so completion order cannot
                // perturb the summary bytes.
                accumulator
                    .lock()
                    .expect("summary accumulator poisoned")
                    .fold_at(order[k], &result);
                folded.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                tick(k);
            });
            if let Some(meter) = &self.progress {
                meter.finish();
            }
            let folded = folded.into_inner();
            assert_eq!(folded, order.len(), "backend did not emit every cell of the shard");
            model.merge(&self.backend.calibration());
            let report = Report {
                threads: self.backend.parallelism(),
                base_seed: grid.base_seed,
                cell_count: cells.len(),
                distinct_instances,
                cache_hits,
                total_wall_micros: started.elapsed().as_micros() as u64,
                summaries: accumulator.into_inner().expect("summary accumulator poisoned").finish(),
                cells: Vec::new(),
            };
            return (report, model);
        }

        // Collecting mode: scatter emitted cells back to their canonical positions.
        let slots: Vec<Mutex<Option<CellResult>>> =
            order.iter().map(|_| Mutex::new(None)).collect();
        self.backend.run_shard(&shard, &|k, result| {
            persist(k, &result);
            *slots[k].lock().expect("result slot poisoned") = Some(result);
            tick(k);
        });
        if let Some(meter) = &self.progress {
            meter.finish();
        }
        model.merge(&self.backend.calibration());
        for (&i, slot) in order.iter().zip(slots) {
            cached[i] = slot.into_inner().expect("result slot poisoned");
        }
        let results: Vec<CellResult> = cached
            .into_iter()
            .map(|c| c.expect("backend did not emit every cell of the shard"))
            .collect();

        let report = Report {
            threads: self.backend.parallelism(),
            base_seed: grid.base_seed,
            cell_count: results.len(),
            distinct_instances,
            cache_hits,
            total_wall_micros: started.elapsed().as_micros() as u64,
            summaries: crate::report::summarize(&results),
            cells: results,
        };
        (report, model)
    }
}

/// Runs every cell of `grid` in-process and folds the outcomes into a [`Report`] — a thin
/// wrapper over [`Sweep`] kept as the stable entry point; see [`Sweep::run_calibrated`]
/// for the pipeline.
pub fn run_grid(grid: &ScenarioGrid, cfg: &SweepConfig) -> Report {
    Sweep::over(grid).config(cfg).run()
}

/// Executes one cell with a throwaway execution session; see [`run_cell_in`].
pub fn run_cell(cell: &Scenario, instance: &Instance, base_seed: u64) -> CellResult {
    run_cell_in(cell, instance, base_seed, &mut Session::new())
}

/// Executes one cell: the cell's workload runs the uniform algorithm and the non-uniform
/// baseline with correct guesses, both validated against the problem's ground-truth
/// checker (see [`WorkloadSpec::run`](crate::workloads::WorkloadSpec::run)). The caller's
/// [`Session`] is reused across every
/// attempt of the uniform driver (and across cells, when the scheduler hands one session
/// per worker).
pub fn run_cell_in(
    cell: &Scenario,
    instance: &Instance,
    base_seed: u64,
    session: &mut Session,
) -> CellResult {
    let started = Instant::now();
    let obs_on = local_obs::is_enabled();
    let obs_start = if obs_on { local_obs::now_micros() } else { 0 };
    let seed = cell.cell_seed(base_seed);
    let measured = cell.problem.run(instance, seed, session);
    let graph = &instance.graph;
    let result = CellResult {
        problem: cell.problem.name().to_string(),
        family: cell.family.name().to_string(),
        requested_n: cell.n,
        n: graph.node_count(),
        edges: graph.edge_count(),
        replicate: cell.replicate,
        seed,
        uniform_rounds: measured.uniform_rounds,
        uniform_messages: measured.uniform_messages,
        nonuniform_rounds: measured.nonuniform_rounds,
        nonuniform_messages: measured.nonuniform_messages,
        overhead_ratio: measured.uniform_rounds as f64 / measured.nonuniform_rounds.max(1) as f64,
        subiterations: measured.subiterations,
        solved: measured.solved,
        valid: measured.valid,
        wall_micros: started.elapsed().as_micros() as u64,
        attempt_micros: measured.attempt_micros,
        prune_micros: measured.prune_micros,
        instance_micros: instance.gen_micros,
    };
    if obs_on {
        // One whole-cell span plus its phases, rebuilt from the measured micros: attempt
        // and prune were timed inside the workload, verify is the remaining wall time.
        // Labels intern per distinct (problem, family) / cell, not per event.
        let phase = local_obs::label(&format!("{};{}", result.problem, result.family));
        let cell_label = local_obs::label(&cell.label());
        let attempt = result.attempt_micros;
        let prune = result.prune_micros;
        let verify = result.wall_micros.saturating_sub(attempt + prune);
        local_obs::complete(obs_metrics::CELL, cell_label, obs_start, result.wall_micros);
        local_obs::complete(obs_metrics::ATTEMPT, phase, obs_start, attempt);
        local_obs::complete(obs_metrics::PRUNE, phase, obs_start + attempt, prune);
        local_obs::complete(obs_metrics::VERIFY, phase, obs_start + attempt + prune, verify);
        // The observed-side record of the predicted-vs-observed join (label = cell label,
        // same registry as `predicted-micros` from `--dry-run`).
        local_obs::record(obs_metrics::CELL_MICROS, cell_label, result.wall_micros);
        local_obs::counter_add(obs_metrics::CELLS_DONE, 1);
    }
    result
}

/// Eligibility slack for the fair scheduler's floating-point deficits.
const EPS: f64 = 1e-9;

/// One schedulable unit of fleet work: a client's task with its cost (the fairness
/// currency) and the peers that already failed it (a failed peer never gets the same task
/// twice).
#[derive(Debug)]
pub(crate) struct TaskEntry<T> {
    /// The caller's task body (the dispatcher stores a stripe and its job here).
    pub payload: T,
    /// Owning client key; fairness is enforced between these.
    pub client: String,
    /// Predicted cost. Deficit round-robin shares the fleet by summed cost, so a client
    /// submitting few huge stripes and one submitting many small ones get equal bandwidth.
    pub cost: f64,
    /// Peers that already failed this task, in failure order. A task fails on each peer
    /// at most once, so the list stays as short as the fleet's failures.
    pub attempted: Vec<usize>,
}

impl<T> TaskEntry<T> {
    /// A fresh task no peer has attempted.
    pub fn new(payload: T, client: impl Into<String>, cost: f64) -> Self {
        TaskEntry { payload, client: client.into(), cost: cost.max(0.0), attempted: Vec::new() }
    }

    /// True when `peer` may serve this task (it has not failed it before).
    pub fn servable_by(&self, peer: usize) -> bool {
        !self.attempted.contains(&peer)
    }

    /// Marks `peer` as having attempted (and failed) this task.
    pub fn mark_attempted(&mut self, peer: usize) {
        if self.servable_by(peer) {
            self.attempted.push(peer);
        }
    }
}

struct ClientQueue<T> {
    deficit: f64,
    tasks: VecDeque<TaskEntry<T>>,
}

impl<T> ClientQueue<T> {
    /// Position and cost of the first task `peer` may serve, in queue (LPT) order.
    fn first_servable(&self, peer: usize) -> Option<(usize, f64)> {
        self.tasks.iter().position(|t| t.servable_by(peer)).map(|pos| (pos, self.tasks[pos].cost))
    }
}

struct SchedState<T> {
    queues: Vec<ClientQueue<T>>,
    index: HashMap<String, usize>,
    /// Round-robin pointer into `queues`; advanced past a queue after serving it.
    cursor: usize,
    live: Vec<bool>,
    shutdown: bool,
}

impl<T> SchedState<T> {
    fn queue_for(&mut self, client: &str) -> usize {
        if let Some(&qi) = self.index.get(client) {
            return qi;
        }
        let qi = self.queues.len();
        self.queues.push(ClientQueue { deficit: 0.0, tasks: VecDeque::new() });
        self.index.insert(client.to_string(), qi);
        qi
    }

    fn any_live_can_serve(&self, task: &TaskEntry<T>) -> bool {
        self.live.iter().enumerate().any(|(p, &up)| up && task.servable_by(p))
    }
}

/// A deficit-round-robin task queue shared by a fleet of peer worker threads — the queue
/// of the remote dispatcher (`backend::dispatch`).
///
/// Every client gets a FIFO queue (callers enqueue each job's stripes in LPT order, so
/// the head is the costliest remaining stripe) and a *deficit* measured in task cost.
/// When a peer asks for work and no queue's head is affordable, every contending queue's
/// deficit is topped up by the minimum shortfall ("water-filling" — the continuous-time
/// limit of classic DRR quanta), so the queue with the cheapest head becomes eligible
/// first and clients are served proportionally to cost, not task count. After a pop the
/// round-robin cursor advances, interleaving clients whenever several are eligible.
///
/// Peers are numbered `0..peers` and fixed at construction. A peer that fails a task
/// joins the task's `attempted` list; [`requeue`] refuses a task no live peer can serve,
/// and [`peer_down`] drains every task stranded the same way — in both cases the caller
/// rescues the work locally, so nothing is silently dropped.
///
/// [`requeue`]: FairScheduler::requeue
/// [`peer_down`]: FairScheduler::peer_down
pub(crate) struct FairScheduler<T> {
    state: Mutex<SchedState<T>>,
    ready: Condvar,
}

impl<T> FairScheduler<T> {
    /// A scheduler over `peers` fleet slots (all initially live).
    pub fn new(peers: usize) -> Self {
        FairScheduler {
            state: Mutex::new(SchedState {
                queues: Vec::new(),
                index: HashMap::new(),
                cursor: 0,
                live: vec![true; peers],
                shutdown: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// How many peers are still live.
    #[cfg(test)]
    pub fn live_peers(&self) -> usize {
        self.state.lock().expect("scheduler poisoned").live.iter().filter(|&&l| l).count()
    }

    /// Tasks currently queued (all clients).
    #[cfg(test)]
    pub fn queued_tasks(&self) -> usize {
        self.state.lock().expect("scheduler poisoned").queues.iter().map(|q| q.tasks.len()).sum()
    }

    /// Enqueues `tasks` on their clients' queues, in order. Fails — returning the tasks
    /// untouched — when no peer is live, so the caller can rescue the job locally instead
    /// of parking it forever.
    pub fn submit(&self, tasks: Vec<TaskEntry<T>>) -> Result<(), Vec<TaskEntry<T>>> {
        let mut state = self.state.lock().expect("scheduler poisoned");
        if !state.live.iter().any(|&l| l) {
            return Err(tasks);
        }
        for task in tasks {
            let qi = state.queue_for(&task.client);
            state.queues[qi].tasks.push_back(task);
        }
        drop(state);
        self.ready.notify_all();
        Ok(())
    }

    /// Puts a partially-failed task back at the *front* of its client's queue (its cells
    /// are already late). Fails — returning the task — when no live peer outside its
    /// `attempted` list remains.
    pub fn requeue(&self, task: TaskEntry<T>) -> Result<(), TaskEntry<T>> {
        let mut state = self.state.lock().expect("scheduler poisoned");
        if !state.any_live_can_serve(&task) {
            return Err(task);
        }
        let qi = state.queue_for(&task.client);
        state.queues[qi].tasks.push_front(task);
        drop(state);
        self.ready.notify_all();
        Ok(())
    }

    /// Marks `peer` dead and drains every queued task the remaining live fleet can no
    /// longer serve (for local rescue by the caller). Idempotent.
    pub fn peer_down(&self, peer: usize) -> Vec<TaskEntry<T>> {
        let mut state = self.state.lock().expect("scheduler poisoned");
        state.live[peer] = false;
        let mut stranded = Vec::new();
        for qi in 0..state.queues.len() {
            let mut kept = VecDeque::new();
            while let Some(task) = state.queues[qi].tasks.pop_front() {
                if state.any_live_can_serve(&task) {
                    kept.push_back(task);
                } else {
                    stranded.push(task);
                }
            }
            state.queues[qi].tasks = kept;
            if state.queues[qi].tasks.is_empty() {
                state.queues[qi].deficit = 0.0;
            }
        }
        drop(state);
        self.ready.notify_all();
        stranded
    }

    /// Ends the scheduler: every blocked and future [`next`](FairScheduler::next) call
    /// returns `None`.
    pub fn shutdown(&self) {
        self.state.lock().expect("scheduler poisoned").shutdown = true;
        self.ready.notify_all();
    }

    /// Blocks until a task `peer` may serve is scheduled to it (`None` once the scheduler
    /// shuts down or the peer was marked dead).
    pub fn next(&self, peer: usize) -> Option<TaskEntry<T>> {
        let mut state = self.state.lock().expect("scheduler poisoned");
        loop {
            if state.shutdown || !state.live.get(peer).copied().unwrap_or(false) {
                return None;
            }
            // Water-filled DRR pass: pop the first affordable head from the cursor on;
            // when none is affordable, top every contending queue up by the minimum
            // shortfall and retry (terminates — some queue then affords its head).
            loop {
                let n = state.queues.len();
                let mut popped = None;
                for step in 0..n {
                    let qi = (state.cursor + step) % n;
                    let Some((pos, cost)) = state.queues[qi].first_servable(peer) else {
                        continue;
                    };
                    if state.queues[qi].deficit + EPS >= cost {
                        popped = Some((qi, pos, cost));
                        break;
                    }
                }
                if let Some((qi, pos, cost)) = popped {
                    let queue = &mut state.queues[qi];
                    queue.deficit -= cost;
                    let task = queue.tasks.remove(pos).expect("position just found");
                    if queue.tasks.is_empty() {
                        // Classic DRR: an idle queue accumulates no credit.
                        queue.deficit = 0.0;
                    }
                    state.cursor = (qi + 1) % n.max(1);
                    return Some(task);
                }
                let shortfall = (0..n)
                    .filter_map(|qi| {
                        let (_, cost) = state.queues[qi].first_servable(peer)?;
                        Some(cost - state.queues[qi].deficit)
                    })
                    .fold(f64::INFINITY, f64::min);
                if !shortfall.is_finite() {
                    break; // nothing this peer can serve — sleep
                }
                for qi in 0..n {
                    if state.queues[qi].first_servable(peer).is_some() {
                        state.queues[qi].deficit += shortfall.max(EPS);
                    }
                }
            }
            state = self.ready.wait(state).expect("scheduler poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{default_workloads, workload};
    use local_graphs::{family, Family, FamilySpec};

    #[test]
    fn every_default_workload_runs_one_valid_cell() {
        for problem in default_workloads() {
            let family: FamilySpec = match problem.name() {
                "arboricity-mis" => Family::Forest3.into(),
                "ps-mis" => Family::DenseGnp.into(),
                "edge-coloring" => Family::Regular6.into(),
                "ruling-set-b2" => Family::UnitDisk.into(),
                _ => Family::SparseGnp.into(),
            };
            let cell = Scenario { problem, family, n: 48, replicate: 0 };
            let instance = Instance::generate(cell.instance_key(1));
            let result = run_cell(&cell, &instance, 1);
            assert!(result.valid, "{} produced an invalid cell", cell.label());
            assert!(result.solved, "{} did not solve", cell.label());
            assert!(result.uniform_rounds > 0 || cell.problem.name() == "luby-mis");
        }
    }

    #[test]
    fn parameterized_families_run_valid_cells() {
        for family_name in ["gnp-d16", "regular-4", "forest-2", "pa-2"] {
            let cell = Scenario {
                problem: workload("mis"),
                family: family(family_name),
                n: 48,
                replicate: 0,
            };
            let instance = Instance::generate(cell.instance_key(1));
            let result = run_cell(&cell, &instance, 1);
            assert!(result.valid, "{} produced an invalid cell", cell.label());
            assert!(result.solved, "{} did not solve", cell.label());
            assert_eq!(result.family, family_name);
        }
    }

    #[test]
    fn grid_run_counts_cells_and_instances() {
        let grid = ScenarioGrid::new()
            .problems([workload("mis"), workload("matching")])
            .families([Family::Grid])
            .sizes([36usize, 64])
            .replicates(2);
        let report = run_grid(&grid, &SweepConfig::with_threads(2));
        assert_eq!(report.cell_count, 8);
        // Two problems share each (family, n, replicate) instance.
        assert_eq!(report.distinct_instances, 4);
        assert_eq!(report.summaries.len(), 2);
        assert!(report.cells.iter().all(|c| c.valid && c.solved));
    }

    #[test]
    fn instance_cache_shares_graphs_across_problems() {
        let a = Scenario {
            problem: workload("mis"),
            family: Family::SparseGnp.into(),
            n: 50,
            replicate: 1,
        };
        let b = Scenario { problem: workload("ruling-set-b2"), ..a.clone() };
        let ia = Instance::generate(a.instance_key(3));
        let ib = Instance::generate(b.instance_key(3));
        assert_eq!(ia.graph, ib.graph);
    }

    fn pop_sequence(sched: &FairScheduler<&'static str>, peer: usize, n: usize) -> Vec<String> {
        (0..n).map(|_| sched.next(peer).expect("task available").client).collect()
    }

    #[test]
    fn equal_cost_clients_interleave_one_for_one() {
        let sched = FairScheduler::new(1);
        sched
            .submit(
                (0..4)
                    .flat_map(|_| {
                        [TaskEntry::new("t", "alpha", 10.0), TaskEntry::new("t", "beta", 10.0)]
                    })
                    .collect(),
            )
            .unwrap();
        let seq = pop_sequence(&sched, 0, 8);
        assert_eq!(seq, vec!["alpha", "beta", "alpha", "beta", "alpha", "beta", "alpha", "beta"]);
    }

    #[test]
    fn fairness_is_by_cost_not_task_count() {
        // alpha's stripes cost 3x beta's: cost-fair service gives beta three tasks for
        // every alpha task, regardless of queue lengths.
        let sched = FairScheduler::new(1);
        let mut tasks: Vec<TaskEntry<&str>> =
            (0..4).map(|_| TaskEntry::new("t", "alpha", 30.0)).collect();
        tasks.extend((0..12).map(|_| TaskEntry::new("t", "beta", 10.0)));
        sched.submit(tasks).unwrap();
        let seq = pop_sequence(&sched, 0, 12);
        let alpha = seq.iter().filter(|c| *c == "alpha").count();
        let beta = seq.iter().filter(|c| *c == "beta").count();
        assert_eq!(alpha, 3, "cost-weighted share, got {seq:?}");
        assert_eq!(beta, 9);
        // And neither client is fully served before the other starts.
        assert!(seq[..4].iter().any(|c| c == "alpha"));
        assert!(seq[..4].iter().any(|c| c == "beta"));
    }

    #[test]
    fn late_clients_are_not_starved_by_a_deep_early_queue() {
        let sched = FairScheduler::new(1);
        sched.submit((0..10).map(|_| TaskEntry::new("t", "early", 5.0)).collect()).unwrap();
        assert_eq!(sched.next(0).unwrap().client, "early");
        sched.submit((0..3).map(|_| TaskEntry::new("t", "late", 5.0)).collect()).unwrap();
        let seq = pop_sequence(&sched, 0, 6);
        assert!(
            seq.iter().take(2).any(|c| c == "late"),
            "late client waited behind the whole early queue: {seq:?}"
        );
    }

    #[test]
    fn attempted_peers_never_get_the_same_task_back() {
        let sched = FairScheduler::new(2);
        let mut task = TaskEntry::new("t", "solo", 1.0);
        task.mark_attempted(0);
        sched.submit(vec![task]).unwrap();
        // Peer 1 may serve it; peer 0 must not. (next(0) would block, so check servability
        // through requeue/drain instead of racing a blocked call.)
        let got = sched.next(1).expect("peer 1 serves the task");
        assert!(!got.servable_by(0));
        assert!(got.servable_by(1));
    }

    #[test]
    fn requeue_fails_once_every_live_peer_has_attempted() {
        let sched: FairScheduler<&str> = FairScheduler::new(2);
        let mut task = TaskEntry::new("t", "solo", 1.0);
        task.mark_attempted(0);
        task.mark_attempted(1);
        let rejected = sched.requeue(task).expect_err("no peer left to serve it");
        assert_eq!(rejected.attempted, vec![0, 1]);
        // With a peer down, a task attempted only by the survivor is equally stranded.
        let drained = sched.peer_down(1);
        assert!(drained.is_empty());
        let mut task = TaskEntry::new("t", "solo", 1.0);
        task.mark_attempted(0);
        assert!(sched.requeue(task).is_err());
    }

    #[test]
    fn peer_death_drains_exactly_the_stranded_tasks() {
        let sched = FairScheduler::new(2);
        let mut hit_by_1 = TaskEntry::new("stranded", "c", 1.0);
        hit_by_1.mark_attempted(1);
        sched
            .submit(vec![
                TaskEntry::new("fresh", "c", 1.0),
                hit_by_1,
                TaskEntry::new("fresh", "c", 1.0),
            ])
            .unwrap();
        // Peer 1 dies: the task it already failed could still run on peer 0… so nothing
        // is stranded. Then peer 0 dies: everything left is stranded.
        assert!(sched.peer_down(1).is_empty());
        let stranded = sched.peer_down(0);
        assert_eq!(stranded.len(), 3);
        assert_eq!(sched.queued_tasks(), 0);
        assert_eq!(sched.live_peers(), 0);
    }

    #[test]
    fn submit_is_refused_with_no_live_fleet() {
        let sched = FairScheduler::new(1);
        sched.peer_down(0);
        let returned =
            sched.submit(vec![TaskEntry::new("t", "c", 1.0)]).expect_err("fleet is gone");
        assert_eq!(returned.len(), 1);
    }

    #[test]
    fn shutdown_unblocks_waiting_peers() {
        let sched: std::sync::Arc<FairScheduler<()>> = std::sync::Arc::new(FairScheduler::new(1));
        let waiter = {
            let sched = sched.clone();
            std::thread::spawn(move || sched.next(0))
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        sched.shutdown();
        assert!(waiter.join().unwrap().is_none());
    }

    #[test]
    fn lpt_order_within_a_client_is_preserved() {
        let sched = FairScheduler::new(1);
        sched
            .submit(vec![
                TaskEntry::new("big", "c", 30.0),
                TaskEntry::new("mid", "c", 20.0),
                TaskEntry::new("small", "c", 10.0),
            ])
            .unwrap();
        let order: Vec<&str> = (0..3).map(|_| sched.next(0).unwrap().payload).collect();
        assert_eq!(order, vec!["big", "mid", "small"]);
    }
}
