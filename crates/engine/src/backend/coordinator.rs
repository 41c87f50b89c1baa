//! The sweep coordinator: many clients, one daemon fleet, fair shared scheduling.
//!
//! `sweep --coordinate ADDR` runs a [`CoordinatorServer`]: the TCP front of one long-lived
//! fleet dispatcher (`backend/dispatch.rs`). It accepts any number of concurrent client
//! connections, each submitting *jobs* — one JSON line per job, either `{"shard":
//! <CellShard>, …}` (what `--submit` ships: a [`NetworkBackend`] whose one peer is the
//! coordinator) or `{"grid": <ScenarioGrid>, …}` (for hand-written clients; the grid is
//! expanded in its canonical cell order), optionally carrying `"telemetry": <ms>` and a
//! `"client": <name>` for accounting. Each job is split into four instance-grouped
//! stripes per fleet peer and queued with the fleet's deficit-round-robin
//! policy, fair *by predicted cost* between clients and longest-processing-time-first within
//! a job. Verified results stream back to each client in exactly the daemon wire protocol —
//! result lines, optional heartbeats, a `{"done": n, "stats": {…}}` sentinel whose extra
//! accounting key clients ignore — so a client cannot tell a coordinator from a daemon. Each
//! connection's lines go through one batching `LineSink`, flushed as a daemon's is: at
//! 64 KiB, when a line is queued after the oldest one waited 20 ms, at the first 5 ms tick
//! of the job's ticker thread after that, and before every heartbeat, sentinel and error
//! line. `--progress` on the client therefore moves once per batch.
//!
//! Nothing reads the coordinator's own trace. So it skips the span dumps its daemons send
//! (megabytes per stripe) unparsed, and when its last active job finalizes it drops the
//! tracks of exited threads (`local_obs::release_finished`; counters stay). A long-lived
//! coordinator thus holds bounded memory.
//!
//! # The determinism and loss contracts
//!
//! Every result line a daemon sends is verified against the submitted cells by the same
//! `StripeStream` state machine the network backend uses, and every cell
//! seed is a pure function of the cell's identity — so a sweep submitted through the
//! coordinator is byte-identical (deterministic view) to the same sweep run in-process, no
//! matter how stripes interleave over the fleet. A daemon that dies mid-stripe goes through
//! the dispatcher's one failure path: its verified cells stand, the peer is retired for
//! the coordinator's lifetime, the remainder is re-queued for the surviving fleet, and
//! whatever no live peer can serve is rescued in-process by the coordinator itself. Per
//! job, `verified + rescued == cells`, checked and printed on every job completion and
//! booked per client in a `ClientLedger`.

use super::dispatch::{Dispatcher, Job, Landing};
use super::network::{read_request_line, write_error_line, NetworkBackend};
use super::stream::{Keyed, LineSink, ResultLine, FLUSH_TICK};
use super::telemetry::WorkerTelemetry;
use super::CellShard;
use crate::accounting::{ClientLedger, JobStats};
use crate::report::CellResult;
use crate::scenario::{Scenario, ScenarioGrid};
use crate::store::ResultStore;
use serde::{Deserialize, Value};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Stripes each job is split into per fleet peer: finer than one per peer, so that the
/// stripes of concurrent clients interleave on the fleet.
const STRIPES_PER_PEER: usize = 4;

/// What a [`CoordinatorServer`] serves from.
#[derive(Debug)]
pub struct CoordinatorConfig {
    /// The fleet transport. Its peers are the daemon fleet — possibly none, in which case
    /// every job is rescued in-process, slow but lossless — and its deadlines, reconnect
    /// policy, `refuse*N` fault clauses and rescue threads apply to every dispatch.
    pub fleet: NetworkBackend,
    /// Shared result store. When set, every job is probed before striping — stored cells
    /// are streamed back immediately without touching the fleet — and every freshly
    /// computed cell (verified or rescued) is written back, so the whole fleet's work
    /// accumulates under one coordinator-side store.
    pub store: Option<Arc<dyn ResultStore>>,
}

/// The writeback half of a job's store attachment: the store handle plus the submitted
/// cells by wire index, so [`CoordJob::send_result`] can persist fresh results.
struct JobPersist {
    store: Arc<dyn ResultStore>,
    base_seed: u64,
    cells: Vec<Scenario>,
}

/// One client job in flight: the submitted cells, the socket to stream results back on,
/// and the exact-accounting state that must reconcile when the last cell lands.
struct CoordJob {
    /// The coordinator the job books its completion with.
    server: Arc<ServerState>,
    client: String,
    seq: u64,
    cells: usize,
    writer: Arc<Mutex<LineSink<TcpStream>>>,
    telemetry_ms: Option<u64>,
    accepted_micros: u64,
    remaining: AtomicUsize,
    verified: AtomicU64,
    rescued: AtomicU64,
    assigned: AtomicU64,
    redispatched: AtomicU64,
    queue_wait: AtomicU64,
    /// Store writeback attachment (`None` when the coordinator runs storeless).
    persist: Option<JobPersist>,
    /// The client's socket broke: stop writing, keep accounting, never block the fleet.
    failed: AtomicBool,
    done: (Mutex<bool>, Condvar),
}

impl CoordJob {
    /// Streams one verified, rescued, or store-served cell back to the client and books
    /// it. `fresh` marks a result computed during this job (fleet-verified or rescued, as
    /// opposed to replayed from the store) — fresh cells are written back to the store so
    /// the fleet's work accumulates. The caller that drops `remaining` to zero finalizes
    /// the job.
    fn send_result(&self, wire: usize, result: CellResult, rescued: bool, fresh: bool) {
        if fresh {
            if let Some(persist) = &self.persist {
                if let Err(e) =
                    persist.store.store(&persist.cells[wire], persist.base_seed, &result)
                {
                    eprintln!(
                        "coord: cannot store cell {} of client {} job {}: {e}",
                        persist.cells[wire].label(),
                        self.client,
                        self.seq
                    );
                }
            }
        }
        if !self.failed.load(Ordering::Relaxed) {
            let line = ResultLine { index: wire, cell: &result };
            let mut writer = self.writer.lock().expect("client writer poisoned");
            if let Err(e) = writer.line(&line) {
                drop(writer);
                self.failed.store(true, Ordering::Relaxed);
                eprintln!(
                    "coord: client {} job {} went away mid-stream ({e}); draining its cells",
                    self.client, self.seq
                );
            }
        }
        if rescued {
            self.rescued.fetch_add(1, Ordering::Relaxed);
        } else {
            self.verified.fetch_add(1, Ordering::Relaxed);
            local_obs::counter_add(local_obs::metrics::COORD_CELLS_VERIFIED, 1);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.finalize();
        }
    }

    /// Terminates the job: sentinel to the client, accounting line to stdout, ledger row,
    /// and the done signal that lets the session read its next job.
    fn finalize(&self) {
        let state = &*self.server;
        let stats = JobStats {
            cells: self.cells as u64,
            verified: self.verified.load(Ordering::Relaxed),
            rescued: self.rescued.load(Ordering::Relaxed),
            assigned: self.assigned.load(Ordering::Relaxed),
            redispatched: self.redispatched.load(Ordering::Relaxed),
            queue_wait_micros: self.queue_wait.load(Ordering::Relaxed),
        };
        if !self.failed.load(Ordering::Relaxed) {
            let sentinel = Value::Map(vec![
                ("done".into(), Value::U64(self.cells as u64)),
                (
                    "stats".into(),
                    Value::Map(vec![
                        ("verified".into(), Value::U64(stats.verified)),
                        ("rescued".into(), Value::U64(stats.rescued)),
                        ("assigned".into(), Value::U64(stats.assigned)),
                        ("redispatched".into(), Value::U64(stats.redispatched)),
                        ("queue_wait_micros".into(), Value::U64(stats.queue_wait_micros)),
                    ]),
                ),
            ]);
            let mut writer = self.writer.lock().expect("client writer poisoned");
            if let Err(e) = writer.line_now(&sentinel) {
                eprintln!(
                    "coord: client {} job {}: cannot write the sentinel: {e}",
                    self.client, self.seq
                );
            }
        }
        let label = local_obs::label(&format!("client {}", self.client));
        local_obs::record(local_obs::metrics::COORD_CELLS_VERIFIED, label, stats.verified);
        local_obs::record(local_obs::metrics::COORD_CELLS_ASSIGNED, label, stats.assigned);
        local_obs::record(
            local_obs::metrics::COORD_QUEUE_WAIT_MICROS,
            label,
            stats.queue_wait_micros,
        );
        state.ledger.lock().expect("ledger poisoned").job_completed(&self.client, &stats);
        println!(
            "coord: client {} job {} done: cells {} = verified {} + rescued {}; assigned {}; \
             redispatched {}; queue-wait {} us",
            self.client,
            self.seq,
            stats.cells,
            stats.verified,
            stats.rescued,
            stats.assigned,
            stats.redispatched,
            stats.queue_wait_micros
        );
        if !stats.reconciles() && !self.failed.load(Ordering::Relaxed) {
            println!(
                "coord: ACCOUNTING MISMATCH for client {} job {}: verified {} + rescued {} != \
                 cells {}",
                self.client, self.seq, stats.verified, stats.rescued, stats.cells
            );
        }
        let _ = std::io::stdout().flush();
        {
            // Admission takes the same lock, so no job is admitted while the trace shrinks.
            let mut active = state.active_jobs.lock().expect("active jobs poisoned");
            *active -= 1;
            if *active == 0 {
                local_obs::release_finished();
            }
        }
        let mut done = self.done.0.lock().expect("done flag poisoned");
        *done = true;
        self.done.1.notify_all();
    }
}

impl Job for Arc<CoordJob> {
    fn client(&self) -> &str {
        &self.client
    }

    fn deliver(&self, index: usize, result: CellResult, landing: Landing) {
        if landing == Landing::Redispatched {
            self.redispatched.fetch_add(1, Ordering::Relaxed);
        }
        self.send_result(index, result, landing == Landing::Rescued, true);
    }

    /// A job whose client went away drops its remaining cells, so that it still
    /// finalizes and frees its slot.
    fn discard(&self, cells: usize) -> bool {
        if !self.failed.load(Ordering::Relaxed) {
            return false;
        }
        if cells > 0 && self.remaining.fetch_sub(cells, Ordering::AcqRel) == cells {
            self.finalize();
        }
        true
    }

    fn dispatched(&self, cells: usize, wait_micros: u64) {
        self.queue_wait.fetch_add(wait_micros, Ordering::Relaxed);
        local_obs::counter_add(local_obs::metrics::COORD_QUEUE_WAIT_MICROS, wait_micros);
        self.assigned.fetch_add(cells as u64, Ordering::Relaxed);
        local_obs::counter_add(local_obs::metrics::COORD_CELLS_ASSIGNED, cells as u64);
    }
}

struct ServerState {
    /// The fleet transport: connect/retry/verify machinery shared with `--backend network`.
    fleet: NetworkBackend,
    store: Option<Arc<dyn ResultStore>>,
    dispatcher: Dispatcher<Arc<CoordJob>>,
    ledger: Mutex<ClientLedger>,
    busy_peers: AtomicU64,
    /// Jobs admitted and not yet finalized.
    active_jobs: Mutex<u64>,
    job_seq: AtomicU64,
}

/// The `sweep --coordinate` service: accepts client job submissions and multiplexes them
/// onto a daemon fleet. See the [module docs](self) for the protocol and the contracts.
pub struct CoordinatorServer {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl CoordinatorServer {
    /// Binds the coordinator on `addr` over the given fleet.
    pub fn bind(addr: &str, config: CoordinatorConfig) -> Result<Self, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        let CoordinatorConfig { fleet, store } = config;
        let dispatcher = Dispatcher::new(fleet.peers.clone(), fleet.rescue_threads, "coord");
        Ok(CoordinatorServer {
            listener,
            state: Arc::new(ServerState {
                fleet,
                store,
                dispatcher,
                ledger: Mutex::new(ClientLedger::new()),
                busy_peers: AtomicU64::new(0),
                active_jobs: Mutex::new(0),
                job_seq: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener.local_addr().map_err(|e| format!("cannot read bound address: {e}"))
    }

    /// Serves forever: one dispatcher worker thread per fleet peer, one session thread per
    /// client connection. Only returns if the listener breaks.
    pub fn run(self) -> Result<(), String> {
        for peer in 0..self.state.fleet.peers.len() {
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || {
                state.dispatcher.worker(peer, &|peer, stripe, emit| {
                    let busy = state.busy_peers.fetch_add(1, Ordering::Relaxed) + 1;
                    local_obs::gauge_max(local_obs::metrics::COORD_FLEET_BUSY, busy);
                    let outcome = state.fleet.run_stripe(peer, stripe, emit, false);
                    state.busy_peers.fetch_sub(1, Ordering::Relaxed);
                    outcome
                })
            });
        }
        for conn in self.listener.incoming() {
            match conn {
                Ok(stream) => {
                    let state = Arc::clone(&self.state);
                    std::thread::spawn(move || client_session(stream, &state));
                }
                Err(e) => eprintln!("coord: accept failed: {e}"),
            }
        }
        Ok(())
    }
}

/// Runs `sweep --coordinate`: binds `addr`, announces `listening on <addr>` on stdout, and
/// coordinates forever.
pub fn coordinate_forever(addr: &str, config: CoordinatorConfig) -> Result<(), String> {
    let server = CoordinatorServer::bind(addr, config)?;
    println!("listening on {}", server.local_addr()?);
    let _ = std::io::stdout().flush();
    server.run()
}

/// One client connection: job lines in, result streams out, one job in flight at a time
/// (results of concurrent jobs on one socket would interleave unparseably — clients
/// wanting parallel jobs open parallel connections).
fn client_session(stream: TcpStream, state: &Arc<ServerState>) {
    let peer_name =
        stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "unknown peer".to_string());
    let _ = stream.set_nodelay(true);
    let reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(e) => {
            eprintln!("coord [{peer_name}]: cannot clone socket: {e}");
            return;
        }
    };
    let writer = Arc::new(Mutex::new(LineSink::new(stream)));
    let mut reader = reader;
    let mut line = String::new();
    let mut last_client = None;
    loop {
        let served = match read_request_line(&mut reader, &mut line) {
            Ok(None) => break,
            Ok(Some(job)) => serve_job(job, &peer_name, &writer, state, &mut last_client),
            Err(e) => Err(e),
        };
        if let Err(e) = served {
            eprintln!("coord [{peer_name}]: {e}");
            write_error_line(&mut *writer.lock().expect("client writer poisoned"), e);
            break;
        }
    }
    if let Some(client) = last_client {
        let ledger = state.ledger.lock().expect("ledger poisoned");
        if let Some(stats) = ledger.client(&client) {
            println!("coord: client {client} disconnected: {stats}");
            let _ = std::io::stdout().flush();
        }
    }
}

/// Parses one job line, decomposes it into LPT-ordered stripes, submits them to the fair
/// scheduler (or rescues the whole job in-process when the fleet is gone), and blocks
/// until the job's sentinel went out — with a ticker beside it that writes stale result
/// lines and keeps the client's liveness window fed with heartbeats when it asked for
/// telemetry.
fn serve_job(
    request: &str,
    peer_name: &str,
    writer: &Arc<Mutex<LineSink<TcpStream>>>,
    state: &Arc<ServerState>,
    last_client: &mut Option<String>,
) -> Result<(), String> {
    let value = serde_json::from_str(request).map_err(|e| format!("unreadable job: {e}"))?;
    let shard = if let Some(shard) = value.get("shard") {
        CellShard::from_value(shard).map_err(|e| format!("malformed shard: {e}"))?
    } else if let Some(grid) = value.get("grid") {
        let grid = ScenarioGrid::from_value(grid).map_err(|e| format!("malformed grid: {e}"))?;
        CellShard::new(grid.base_seed, grid.cells())
    } else {
        return Err("job without a shard or a grid".to_string());
    };
    if shard.code_version != crate::store::CODE_VERSION {
        return Err(format!(
            "code-version skew: job was built by {:?}, this coordinator is {:?}",
            shard.code_version,
            crate::store::CODE_VERSION
        ));
    }
    let telemetry_ms = value.get("telemetry").and_then(Value::as_u64);
    let client = value
        .get("client")
        .and_then(Value::as_str)
        .map(str::to_string)
        .unwrap_or_else(|| format!("anon@{peer_name}"));
    *last_client = Some(client.clone());

    let seq = state.job_seq.fetch_add(1, Ordering::Relaxed);
    state.ledger.lock().expect("ledger poisoned").job_submitted(&client);
    let active = {
        let mut active = state.active_jobs.lock().expect("active jobs poisoned");
        *active += 1;
        *active
    };
    local_obs::counter_add(local_obs::metrics::COORD_JOBS, 1);
    local_obs::gauge_max(local_obs::metrics::COORD_JOBS_ACTIVE, active);
    println!(
        "coord: client {client} job {seq} accepted: {} cells from {peer_name}",
        shard.cells.len()
    );
    let _ = std::io::stdout().flush();

    let job = Arc::new(CoordJob {
        server: Arc::clone(state),
        client: client.clone(),
        seq,
        cells: shard.cells.len(),
        writer: Arc::clone(writer),
        telemetry_ms,
        accepted_micros: local_obs::now_micros(),
        remaining: AtomicUsize::new(shard.cells.len()),
        verified: AtomicU64::new(0),
        rescued: AtomicU64::new(0),
        assigned: AtomicU64::new(0),
        redispatched: AtomicU64::new(0),
        queue_wait: AtomicU64::new(0),
        persist: state.store.as_ref().map(|store| JobPersist {
            store: Arc::clone(store),
            base_seed: shard.base_seed,
            cells: shard.cells.clone(),
        }),
        failed: AtomicBool::new(false),
        done: (Mutex::new(false), Condvar::new()),
    });

    if shard.cells.is_empty() {
        // Degenerate but legal: answer immediately with an empty sentinel.
        job.finalize();
        return Ok(());
    }

    let ticker = {
        let job = Arc::clone(&job);
        std::thread::spawn(move || tick_until_done(&job))
    };

    // Probe the shared store first: stored cells stream back immediately (booked as
    // verified — they went through full verification when first computed) and never
    // touch the fleet. Only the misses are striped.
    let mut missed: Vec<usize> = (0..shard.cells.len()).collect();
    if let Some(store) = &state.store {
        missed.clear();
        let mut hits = 0u64;
        for (i, cell) in shard.cells.iter().enumerate() {
            match store.load(cell, shard.base_seed) {
                Some(result) => {
                    hits += 1;
                    job.send_result(i, result, false, false);
                }
                None => missed.push(i),
            }
        }
        if hits > 0 {
            println!(
                "coord: client {client} job {seq}: {hits} of {} cells served from {}",
                shard.cells.len(),
                store.describe()
            );
            let _ = std::io::stdout().flush();
        }
    }

    // Only the store misses go to the fleet: queued as instance-grouped stripes, LPT
    // between stripes so each client's costliest work is in flight earliest, or rescued
    // in-process right here when no peer is live.
    if !missed.is_empty() {
        let sub = CellShard {
            base_seed: shard.base_seed,
            code_version: shard.code_version.clone(),
            cells: missed.iter().map(|&i| shard.cells[i].clone()).collect(),
        };
        let stripes = state.fleet.peers.len() * STRIPES_PER_PEER;
        state.dispatcher.submit(&job, &sub, &missed, stripes);
    }

    // One job in flight per connection: wait for the sentinel before reading the next
    // job line.
    let (lock, cvar) = &job.done;
    let mut done = lock.lock().expect("done flag poisoned");
    while !*done {
        done = cvar.wait(done).expect("done flag poisoned");
    }
    drop(done);
    let _ = ticker.join();
    if job.failed.load(Ordering::Relaxed) {
        return Err(format!("client {client} went away mid-job"));
    }
    Ok(())
}

/// The ticker of one job, until it finalizes: every [`FLUSH_TICK`] it writes result lines
/// that waited past the sink's bound, and when the client asked for telemetry it sends
/// absolute progress every interval, which feeds the client's shrunken liveness window
/// while the job is queued, in flight or rescued.
fn tick_until_done(job: &CoordJob) {
    let interval = job.telemetry_ms.map(|ms| Duration::from_millis(ms.max(1)));
    let tick = interval.map_or(FLUSH_TICK, |interval| interval.min(FLUSH_TICK));
    let mut last_beat = Instant::now();
    let (lock, cvar) = &job.done;
    loop {
        let done = lock.lock().expect("done flag poisoned");
        let (done, _) =
            cvar.wait_timeout_while(done, tick, |done| !*done).expect("done flag poisoned");
        if *done || job.failed.load(Ordering::Relaxed) {
            return;
        }
        drop(done);
        let mut writer = job.writer.lock().expect("client writer poisoned");
        // Best-effort: a failed write breaks the sink, and the next result line's write
        // then marks the client as gone.
        if interval.is_some_and(|interval| last_beat.elapsed() >= interval) {
            last_beat = Instant::now();
            let beat = WorkerTelemetry {
                cells_done: (job.cells - job.remaining.load(Ordering::Relaxed)) as u64,
                wall_micros: local_obs::now_micros().saturating_sub(job.accepted_micros),
                counters: Vec::new(),
            };
            let _ = writer.line_now(&Keyed("telemetry", &beat));
        } else {
            let _ = writer.flush_stale();
        }
    }
}
