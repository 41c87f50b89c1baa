//! The network backend — the one remote transport — and the `sweep --serve` daemon it talks
//! to.
//!
//! # Wire protocol
//!
//! The client writes one JSON *request line* per stripe over the socket —
//! `{"shard": <CellShard>, "telemetry": <ms>?, "client": <name>?}` — and the daemon answers
//! with a newline-delimited stream verified by `backend/stream.rs`: one `{"index": i, "cell":
//! {…}}` line per finished cell (in completion order — the index maps back to the stripe),
//! optional `{"telemetry": …}` heartbeats and one `{"spans": …}` dump when telemetry was
//! requested, and a `{"done": n, "observations": […]}` sentinel carrying the daemon's
//! cost-model observation sums. Connections are persistent: a daemon serves any number of
//! requests per connection and any number of connections over its lifetime,
//! version-checking every shard against its own build. A daemon that cannot serve a
//! request — including a request line over [`MAX_REQUEST_BYTES`] — answers a single
//! `{"error": …}` line and drops the connection. A `sweep --coordinate` service speaks the
//! same protocol, so `--submit ADDR` is this backend over the one peer `ADDR`.
//!
//! # Robustness discipline
//!
//! [`NetworkBackend::run_shard`] is a one-job run of the fleet dispatcher
//! (`backend/dispatch.rs`): one stripe per peer, pulled from a fair queue by one worker per
//! peer. Every connect carries a deadline, every read and write a liveness window
//! ([`super::liveness_window`] — heartbeats shrink it from the configured I/O deadline to a
//! few heartbeat intervals). Failed connects retry with capped exponential backoff and
//! deterministic jitter ([`super::backoff_ms`]). When a peer dies mid-stripe, its verified
//! cells stand, the peer is retired, the missing remainder is re-queued for the healthy
//! peers ([`local_obs::metrics::REDISPATCHED_CELLS`]), and whatever no peer can serve is
//! rescued in-process — so a dead, flapping, or garbage-spewing daemon degrades wall
//! clock, never the report. Connection state is observable:
//! [`local_obs::metrics::NET_CONNECTS`]/[`local_obs::metrics::NET_RETRIES`] count attempts,
//! [`local_obs::metrics::WORKER_STATE`] gauges the peak number of simultaneously connected
//! peers, and every transition lands as a timestamped `worker-state` record labelled with
//! the peer.
//!
//! Fault injection: `refuse*N` clauses fail the first N connect attempts client-side;
//! everything else in a `w<i>:` scope is scripted into daemon `i`'s own `LOCAL_FAULTS`
//! environment when it is launched (daemons are separate processes — the client cannot
//! forward faults it did not start the daemon with; [`super::ProcessBackend`] launches its
//! local daemons that way).

use super::dispatch::{self, Job, Landing};
use super::faults::{FaultInjector, LineFault};
use super::stream::{LineOutcome, StripeStream};
use super::telemetry::{SpanDump, WorkerTelemetry};
use super::{
    backoff_ms, liveness_window, CellShard, EmitFn, ExecBackend, FaultPlan, InProcessBackend,
};
use crate::cost::CostModel;
use crate::gate::ConcurrencyGate;
use crate::progress::ProgressMeter;
use crate::report::CellResult;
use serde::{Deserialize, Serialize, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long one connect attempt may take by default; [`super::ProcessBackend`] waits as
/// long for a launched daemon to announce its address.
pub(super) const DEFAULT_CONNECT_TIMEOUT_MS: u64 = 5_000;

/// Executes shards by striping them over persistent `sweep --serve` TCP daemons (or one
/// `sweep --coordinate` service).
#[derive(Debug)]
pub struct NetworkBackend {
    /// Peer addresses, in peer-index order.
    pub(super) peers: Vec<String>,
    /// Threads of the in-process rescue path (`0` = available parallelism).
    pub(super) rescue_threads: usize,
    observed: Mutex<CostModel>,
    progress: Option<ProgressMeter>,
    heartbeat_ms: u64,
    io_deadline_ms: u64,
    connect_timeout_ms: u64,
    retry_base_ms: u64,
    retry_cap_ms: u64,
    max_connect_attempts: u32,
    faults: FaultPlan,
    /// Scripted connect refusals already consumed, per peer (process-lifetime semantics:
    /// `refuse*2` refuses two attempts total, not two per stripe).
    refused: Vec<AtomicU64>,
    /// Currently connected peers, for the connection-state gauge.
    connected: AtomicU64,
    /// Per-peer connection state, so the shared gauge only moves on real transitions (a
    /// refused connect to one peer must not decrement another peer's connection).
    peer_up: Vec<AtomicBool>,
    /// Client name forwarded with every request (coordinators use it for per-client
    /// accounting; plain daemons ignore the key).
    client_label: Option<String>,
}

impl NetworkBackend {
    /// A backend over the given daemon addresses (`host:port`, one stripe per peer). Any
    /// number of peers, including none: every cell is then rescued in-process.
    pub fn new(peers: Vec<String>) -> Self {
        let refused = peers.iter().map(|_| AtomicU64::new(0)).collect();
        let peer_up = peers.iter().map(|_| AtomicBool::new(false)).collect();
        NetworkBackend {
            refused,
            peer_up,
            peers,
            rescue_threads: 0,
            observed: Mutex::new(CostModel::new()),
            progress: None,
            heartbeat_ms: 500,
            io_deadline_ms: super::DEFAULT_IO_DEADLINE_MS,
            connect_timeout_ms: DEFAULT_CONNECT_TIMEOUT_MS,
            retry_base_ms: 100,
            retry_cap_ms: 5_000,
            max_connect_attempts: 5,
            faults: FaultPlan::from_env_lossy(),
            connected: AtomicU64::new(0),
            client_label: None,
        }
    }

    /// Names this backend's owner in every request it ships. A coordinator peer books the
    /// request's cells under this client; plain daemons ignore the key.
    pub fn client(mut self, name: impl Into<String>) -> Self {
        self.client_label = Some(name.into());
        self
    }

    /// Sets how many threads the in-process rescue path uses when no peer can serve a cell
    /// (`0` = available parallelism, the default — rescue is the degraded mode, so it takes
    /// the whole machine).
    pub fn rescue_threads(mut self, threads: usize) -> Self {
        self.rescue_threads = threads;
        self
    }

    /// Attaches a live progress meter; daemons are then asked for heartbeats.
    pub fn progress(mut self, meter: ProgressMeter) -> Self {
        self.progress = Some(meter);
        self
    }

    /// Sets the daemon heartbeat interval (default 500ms; only used when telemetry is on).
    pub fn heartbeat_ms(mut self, ms: u64) -> Self {
        self.heartbeat_ms = ms.max(1);
        self
    }

    /// Sets the I/O liveness deadline in milliseconds (default 600000). When heartbeats
    /// flow, the effective read window shrinks to a few heartbeat intervals.
    pub fn io_deadline_ms(mut self, ms: u64) -> Self {
        self.io_deadline_ms = ms.max(1);
        self
    }

    /// Sets the per-attempt connect timeout in milliseconds (default 5000).
    pub fn connect_timeout_ms(mut self, ms: u64) -> Self {
        self.connect_timeout_ms = ms.max(1);
        self
    }

    /// Sets the reconnect policy: capped exponential backoff starting at `base_ms`, capped
    /// at `cap_ms`, giving up on a peer after `attempts` failed connects (defaults
    /// 100/5000/5). Jitter is deterministic per (peer, attempt).
    pub fn retry(mut self, base_ms: u64, cap_ms: u64, attempts: u32) -> Self {
        self.retry_base_ms = base_ms.max(1);
        self.retry_cap_ms = cap_ms.max(base_ms.max(1));
        self.max_connect_attempts = attempts.max(1);
        self
    }

    /// Sets the deterministic fault-injection plan (default: the `LOCAL_FAULTS`
    /// environment script). Only coordinator-side clauses apply here — `refuse*N` scoped to
    /// peer `i` fails that peer's first N connect attempts; stream faults belong in the
    /// daemon's own environment.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    fn telemetry_interval(&self) -> Option<u64> {
        (self.progress.is_some() || local_obs::is_enabled()).then_some(self.heartbeat_ms)
    }

    /// Records a connection-state transition for `peer` (1 = connected, 0 = down) and keeps
    /// the peak-concurrent-connections gauge current. The shared count moves only on this
    /// peer's *own* transitions: a failed connect to a peer that was never up (a scripted
    /// refusal, say) must not eat another peer's live connection from the gauge.
    fn record_state(&self, peer: usize, connected: bool) {
        let was = self.peer_up[peer].swap(connected, Ordering::Relaxed);
        if connected {
            local_obs::counter_add(local_obs::metrics::NET_CONNECTS, 1);
        }
        let now = match (was, connected) {
            (false, true) => self.connected.fetch_add(1, Ordering::Relaxed) + 1,
            (true, false) => self.connected.fetch_sub(1, Ordering::Relaxed).saturating_sub(1),
            _ => self.connected.load(Ordering::Relaxed),
        };
        local_obs::gauge_max(local_obs::metrics::WORKER_STATE, now);
        let label = local_obs::label(&format!("peer {peer} {}", self.peers[peer]));
        local_obs::record(local_obs::metrics::WORKER_STATE, label, connected as u64);
    }

    /// Connects to `peer` with the retry policy; scripted refusals consume attempts like
    /// real connection errors (and count like them — backoff, retry counter, state record).
    fn connect(&self, peer: usize) -> Result<TcpStream, String> {
        let addr = &self.peers[peer];
        let scripted = self.faults.refuse_connects(peer);
        let timeout = Duration::from_millis(self.connect_timeout_ms);
        let mut last_err = String::new();
        for attempt in 1..=self.max_connect_attempts {
            // Refusals are process-lifetime: `refuse*2` refuses two attempts total across
            // every stripe and re-dispatch, then lets connects through.
            let refused = self.refused[peer]
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    (n < scripted).then_some(n + 1)
                })
                .is_ok();
            if refused {
                local_obs::counter_add(local_obs::metrics::FAULTS_INJECTED, 1);
                eprintln!("[fault] refusing connect attempt {attempt} to peer {peer} ({addr})");
                last_err = "fault-injected connect refusal".to_string();
            } else {
                match try_connect(addr, timeout) {
                    Ok(stream) => {
                        self.record_state(peer, true);
                        return Ok(stream);
                    }
                    Err(e) => last_err = e,
                }
            }
            local_obs::counter_add(local_obs::metrics::NET_RETRIES, 1);
            self.record_state(peer, false);
            if attempt < self.max_connect_attempts {
                std::thread::sleep(Duration::from_millis(backoff_ms(
                    peer,
                    attempt,
                    self.retry_base_ms,
                    self.retry_cap_ms,
                )));
            }
        }
        Err(format!(
            "cannot connect to {addr} after {} attempts: {last_err}",
            self.max_connect_attempts
        ))
    }

    /// Dispatches one stripe to one peer over a fresh connection, emitting each verified
    /// cell by its stripe index. Returns the stripe indices still missing plus the failure
    /// reason when the stream cannot be trusted to completion. This is the dispatcher's
    /// [`dispatch::RunStripe`] for both remote fronts.
    pub(super) fn run_stripe(
        &self,
        peer: usize,
        stripe: &CellShard,
        emit: &EmitFn,
    ) -> Result<(), (Vec<usize>, String)> {
        let all = || (0..stripe.cells.len()).collect::<Vec<usize>>();
        let stream = match self.connect(peer) {
            Ok(stream) => stream,
            Err(reason) => return Err((all(), reason)),
        };
        let telemetry = self.telemetry_interval();
        let window = liveness_window(Duration::from_millis(self.io_deadline_ms), telemetry);
        let configured = stream
            .set_nodelay(true)
            .and_then(|_| stream.set_read_timeout(Some(window)))
            .and_then(|_| stream.set_write_timeout(Some(window)));
        if let Err(e) = configured {
            self.record_state(peer, false);
            return Err((all(), format!("cannot configure socket: {e}")));
        }

        // Span timestamps in the daemon's dump are relative to the daemon's own request
        // epoch; rebase them onto our timeline at the moment we sent the request.
        let connect_offset = local_obs::now_micros();
        let mut request = vec![("shard".to_string(), stripe.to_value())];
        if let Some(ms) = telemetry {
            request.push(("telemetry".to_string(), Value::U64(ms)));
        }
        if let Some(name) = &self.client_label {
            request.push(("client".to_string(), Value::Str(name.clone())));
        }
        let request = serde_json::to_string(&Value::Map(request)).expect("request serializes");
        let mut writer = &stream;
        if let Err(e) = writeln!(writer, "{request}").and_then(|_| writer.flush()) {
            self.record_state(peer, false);
            return Err((all(), format!("cannot ship the stripe to {}: {e}", self.peers[peer])));
        }

        let mut reader = BufReader::new(&stream);
        let mut verifier = StripeStream::new(stripe, format!("worker {peer}"), connect_offset);
        let mut failure = None;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => {
                    failure = Some("connection closed before the sentinel".to_string());
                    break;
                }
                Ok(_) => {
                    let text = line.trim_end_matches(['\n', '\r']);
                    match verifier.consume(text, self.progress.as_ref(), &mut |i, r| emit(i, r)) {
                        Ok(LineOutcome::Progress) => {}
                        Ok(LineOutcome::Finished) => break,
                        Err(reason) => {
                            failure = Some(reason);
                            break;
                        }
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    failure = Some(format!(
                        "liveness deadline exceeded ({}ms without a line — dead peer?)",
                        window.as_millis()
                    ));
                    break;
                }
                Err(e) => {
                    failure = Some(format!("stream read error: {e}"));
                    break;
                }
            }
        }
        if failure.is_none() {
            failure = verifier.verify_completion().err();
        }
        self.record_state(peer, false);

        match failure {
            None => {
                if let Some(observations) =
                    verifier.sentinel_observations().map(observations_from_value)
                {
                    let mut observed = self.observed.lock().expect("cost observations poisoned");
                    for (problem, family, obs, pred) in observations.unwrap_or_default() {
                        observed.observe_group(&problem, &family, obs, pred);
                    }
                }
                Ok(())
            }
            Some(reason) => {
                self.observed
                    .lock()
                    .expect("cost observations poisoned")
                    .merge(&verifier.line_observed);
                Err((verifier.missing(), reason))
            }
        }
    }
}

impl ExecBackend for NetworkBackend {
    fn name(&self) -> &'static str {
        "network"
    }

    fn parallelism(&self) -> usize {
        self.peers.len()
    }

    fn run_shard(&self, shard: &CellShard, emit: &EmitFn) {
        let job = ShardJob { emit, observed: &self.observed };
        dispatch::run_job(
            &self.peers,
            self.rescue_threads,
            "sweep network backend",
            job,
            shard,
            &|peer, stripe, emit| self.run_stripe(peer, stripe, emit),
        );
    }

    fn calibration(&self) -> CostModel {
        let mut out = CostModel::new();
        out.merge(&self.observed.lock().expect("cost observations poisoned"));
        out
    }
}

/// The one job of a [`NetworkBackend::run_shard`] call: results go straight to the
/// scheduler's sink, rescue calibration to the backend's own model.
#[derive(Clone, Copy)]
struct ShardJob<'a> {
    emit: &'a EmitFn<'a>,
    observed: &'a Mutex<CostModel>,
}

impl Job for ShardJob<'_> {
    fn client(&self) -> &str {
        ""
    }

    fn deliver(&self, index: usize, result: CellResult, _landing: Landing) {
        (self.emit)(index, result);
    }

    fn calibration(&self) -> &Mutex<CostModel> {
        self.observed
    }
}

/// One resolve-and-connect attempt with a deadline, trying every resolved address once.
fn try_connect(addr: &str, timeout: Duration) -> Result<TcpStream, String> {
    let resolved = addr.to_socket_addrs().map_err(|e| format!("cannot resolve {addr}: {e}"))?;
    let mut last = format!("{addr} resolves to no addresses");
    for candidate in resolved {
        match TcpStream::connect_timeout(&candidate, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e.to_string(),
        }
    }
    Err(last)
}

/// Runs the `sweep --serve` daemon loop: binds `addr`, announces `listening on <addr>` on
/// stdout (so scripts binding port 0 can learn the port), and serves shard requests
/// forever — any number of connections, any number of requests per connection. Up to
/// `max_concurrent` plain shard requests execute concurrently (`0` = auto: the machine's
/// thread budget divided by the per-shard thread count); requests that need a
/// deterministic process-wide view — an armed fault script (its result-line counter is
/// process-cumulative) or a telemetry request (which resets the obs epoch) — run
/// exclusively, so fault indices and counter attribution keep one deterministic emission
/// order. Stream faults scripted in the daemon's own `LOCAL_FAULTS` apply to its result
/// stream; `kill`/`truncate` clauses terminate the daemon process, exactly like the real
/// failures they simulate. Only returns on bind failure.
pub fn serve_forever(addr: &str, threads: usize, max_concurrent: usize) -> Result<(), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| format!("cannot read bound address: {e}"))?;
    println!("listening on {local}");
    let _ = std::io::stdout().flush();
    let faults = Arc::new(FaultInjector::from_env_lossy());
    if faults.is_armed() {
        eprintln!("sweep serve: fault injection armed");
    }
    let capacity = if max_concurrent > 0 {
        max_concurrent
    } else {
        let budget = crate::pool::resolve_worker_count(0);
        let per_shard = crate::pool::resolve_worker_count(threads);
        (budget / per_shard.max(1)).max(1)
    };
    let gate = Arc::new(ConcurrencyGate::new(capacity));
    for conn in listener.incoming() {
        match conn {
            Ok(stream) => {
                let faults = Arc::clone(&faults);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || serve_connection(stream, threads, &faults, &gate));
            }
            Err(e) => eprintln!("sweep serve: accept failed: {e}"),
        }
    }
    Ok(())
}

/// Serves one client connection: request lines in, result streams out, until the client
/// hangs up or a request cannot be served (one `{"error": …}` line, then hang up — the
/// coordinator treats it like any other failed stream and rescues).
fn serve_connection(
    stream: TcpStream,
    threads: usize,
    faults: &FaultInjector,
    gate: &ConcurrencyGate,
) {
    let client =
        stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "unknown peer".to_string());
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(e) => {
            eprintln!("sweep serve [{client}]: cannot clone socket: {e}");
            return;
        }
    };
    let mut writer = stream;
    let mut line = String::new();
    loop {
        let served = match read_request_line(&mut reader, &mut line) {
            Ok(None) => return,
            Ok(Some(request)) => serve_request(request, threads, faults, gate, &mut writer),
            Err(e) => Err(e),
        };
        if let Err(e) = served {
            eprintln!("sweep serve [{client}]: {e}");
            write_error_line(&mut writer, e);
            return;
        }
    }
}

/// The longest request line a server reads (32 MiB, newline included). Requests are one
/// shard or grid per line, so this bounds what one connection can make a daemon or
/// coordinator buffer; a longer line gets one `{"error": …}` reply and the connection is
/// closed.
pub const MAX_REQUEST_BYTES: usize = 32 << 20;

/// Reads one request line of at most [`MAX_REQUEST_BYTES`] into `line`, returning it
/// trimmed, or `None` when the client hung up. The one line reader of both servers
/// (`sweep --serve` daemons and the coordinator); its errors are meant for the client's
/// error line.
pub(super) fn read_request_line<'a>(
    reader: &mut impl BufRead,
    line: &'a mut String,
) -> Result<Option<&'a str>, String> {
    line.clear();
    match reader.take(MAX_REQUEST_BYTES as u64 + 1).read_line(line) {
        Ok(0) => Ok(None),
        Ok(read) if read > MAX_REQUEST_BYTES => {
            Err(format!("request line longer than {MAX_REQUEST_BYTES} bytes"))
        }
        Ok(_) => Ok(Some(line.trim())),
        Err(e) => Err(format!("read failed: {e}")),
    }
}

/// Answers a request that cannot be served with one `{"error": …}` line (best-effort: the
/// caller hangs up next either way).
pub(super) fn write_error_line(out: &mut impl Write, message: String) {
    let reply = Value::Map(vec![("error".into(), Value::Str(message))]);
    let text = serde_json::to_string(&reply).expect("error line serializes");
    let _ = writeln!(out, "{text}");
    let _ = out.flush();
}

/// Parses and executes one shard request against this daemon's build, inside the daemon's
/// concurrency gate: plain requests share up to the gate's capacity, while fault-scripted
/// or telemetry requests hold the gate alone (the fault counter and the obs epoch are
/// process-wide). While queued behind the gate, a telemetry request heartbeats its client
/// so the client's shrunken liveness window does not declare this daemon dead.
fn serve_request(
    request: &str,
    threads: usize,
    faults: &FaultInjector,
    gate: &ConcurrencyGate,
    out: &mut (impl Write + Send),
) -> Result<(), String> {
    let value = serde_json::from_str(request).map_err(|e| format!("unreadable request: {e}"))?;
    let shard = CellShard::from_value(
        value.get("shard").ok_or_else(|| "request without a shard".to_string())?,
    )
    .map_err(|e| format!("malformed shard: {e}"))?;
    let telemetry = value.get("telemetry").and_then(Value::as_u64);
    let keepalive = |out: &mut dyn Write| {
        if telemetry.is_none() {
            return;
        }
        let beat = WorkerTelemetry { cells_done: 0, wall_micros: 0, counters: Vec::new() };
        let line = Value::Map(vec![("telemetry".into(), beat.to_value())]);
        let text = serde_json::to_string(&line).expect("heartbeat serializes");
        let _ = writeln!(out, "{text}");
        let _ = out.flush();
    };
    let _slot = if faults.is_armed() || telemetry.is_some() {
        gate.acquire_exclusive(|| keepalive(out))
    } else {
        gate.acquire(|| keepalive(out))
    };
    if telemetry.is_some() {
        // Per-request span/counter epoch: a long-lived daemon must not replay its whole
        // history into every span dump. (The fault injector's cumulative result-line
        // counter lives outside the obs layer and is unaffected.)
        local_obs::reset();
    }
    serve_shard(&shard, threads, telemetry, faults, out)
}

/// The daemon's serving core: version-checks `shard`, executes it with an
/// [`InProcessBackend`], streams result lines plus the observation-carrying sentinel to
/// `out`, and applies the process's fault injector to every result line (`kill` and
/// `truncate` clauses terminate the *calling process* when they fire).
///
/// `telemetry_ms` is the client's heartbeat request: `Some(interval)` turns the obs layer on
/// for the shard and adds heartbeat records every `interval` milliseconds plus a final span
/// dump before the sentinel; `None` produces exactly the pre-telemetry stream.
pub(super) fn serve_shard(
    shard: &CellShard,
    threads: usize,
    telemetry_ms: Option<u64>,
    faults: &FaultInjector,
    out: &mut (impl Write + Send),
) -> Result<(), String> {
    if shard.code_version != crate::store::CODE_VERSION {
        return Err(format!(
            "code-version skew: shard was built by {:?}, this worker is {:?}",
            shard.code_version,
            crate::store::CODE_VERSION
        ));
    }
    if telemetry_ms.is_some() {
        local_obs::enable();
    }
    let started = std::time::Instant::now();
    let backend = InProcessBackend::new(threads);
    let sink = Mutex::new(&mut *out);
    let cells_done = AtomicU64::new(0);
    let heartbeat = || {
        let record = WorkerTelemetry {
            cells_done: cells_done.load(Ordering::Relaxed),
            wall_micros: started.elapsed().as_micros() as u64,
            counters: local_obs::counter_totals(),
        };
        let line = Value::Map(vec![("telemetry".into(), record.to_value())]);
        let text = serde_json::to_string(&line).expect("telemetry line serializes");
        // Best-effort: a heartbeat the client never reads must not fail the stripe.
        let mut sink = sink.lock().expect("result sink poisoned");
        let _ = writeln!(sink, "{text}");
        let _ = sink.flush();
    };
    let mut write_error = None;
    {
        let write_error = Mutex::new(&mut write_error);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            if let Some(interval_ms) = telemetry_ms {
                let stop = &stop;
                let heartbeat = &heartbeat;
                scope.spawn(move || {
                    // Sleep in short slices so the beater notices `stop` promptly even
                    // under long heartbeat intervals.
                    let slice = Duration::from_millis(interval_ms.clamp(1, 50));
                    let mut elapsed_ms = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(slice);
                        elapsed_ms += slice.as_millis() as u64;
                        if elapsed_ms >= interval_ms {
                            elapsed_ms = 0;
                            heartbeat();
                        }
                    }
                });
            }
            backend.run_shard(shard, &|index, result| {
                let line = Value::Map(vec![
                    ("index".into(), Value::U64(index as u64)),
                    ("cell".into(), result.to_value()),
                ]);
                let text = serde_json::to_string(&line).expect("result line serializes");
                cells_done.fetch_add(1, Ordering::Relaxed);
                let mut sink = sink.lock().expect("result sink poisoned");
                // The scripted faults fire under the sink lock, so "result line k" follows
                // emission order deterministically.
                match faults.on_result_line() {
                    LineFault::Kill => {
                        let _ = sink.flush();
                        std::process::exit(1);
                    }
                    LineFault::Truncate => {
                        // A clean stream that simply ends: flush what was verified so far
                        // and exit zero without a sentinel.
                        let _ = sink.flush();
                        std::process::exit(0);
                    }
                    LineFault::Garble => {
                        let _ = writeln!(sink, "{}", FaultInjector::garbage_line(index as u64));
                    }
                    LineFault::Duplicate => {
                        let _ = writeln!(sink, "{text}");
                    }
                    LineFault::Delay(ms) => {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    LineFault::None => {}
                }
                if let Err(e) = writeln!(sink, "{text}") {
                    write_error.lock().expect("error slot poisoned").get_or_insert(e.to_string());
                }
            });
            stop.store(true, Ordering::Relaxed);
        });
    }
    if let Some(e) = write_error {
        return Err(format!("cannot write results: {e}"));
    }
    if telemetry_ms.is_some() {
        // One guaranteed final heartbeat (fast stripes may outrun the interval), then the
        // span dump — both before the sentinel, which stays the stream terminator.
        heartbeat();
        let dump = SpanDump::from_snapshot(&local_obs::snapshot());
        let line = Value::Map(vec![("spans".into(), dump.to_value())]);
        let text = serde_json::to_string(&line).expect("span dump serializes");
        let mut sink = sink.lock().expect("result sink poisoned");
        writeln!(sink, "{text}").map_err(|e| format!("cannot write span dump: {e}"))?;
    }
    let sentinel = Value::Map(vec![
        ("done".into(), Value::U64(shard.cells.len() as u64)),
        ("observations".into(), observations_to_value(&backend.calibration().observations())),
    ]);
    let text = serde_json::to_string(&sentinel).expect("sentinel serializes");
    let mut sink = sink.lock().expect("result sink poisoned");
    writeln!(sink, "{text}").map_err(|e| format!("cannot write sentinel: {e}"))?;
    sink.flush().map_err(|e| format!("cannot flush results: {e}"))
}

/// Renders calibration observation sums for the sentinel line.
pub(super) fn observations_to_value(observations: &[(String, String, f64, f64)]) -> Value {
    Value::Seq(
        observations
            .iter()
            .map(|(problem, family, observed, predicted)| {
                Value::Seq(vec![
                    Value::Str(problem.clone()),
                    Value::Str(family.clone()),
                    Value::F64(*observed),
                    Value::F64(*predicted),
                ])
            })
            .collect(),
    )
}

/// Parses the sentinel's observation sums; shape errors discard the calibration only (the
/// results themselves were verified line by line).
pub(super) fn observations_from_value(
    value: &Value,
) -> Result<Vec<(String, String, f64, f64)>, String> {
    value
        .as_seq()
        .ok_or_else(|| "observations are not a sequence".to_string())?
        .iter()
        .map(|entry| match entry.as_seq() {
            Some([problem, family, observed, predicted]) => Ok((
                String::from_value(problem)?,
                String::from_value(family)?,
                f64::from_value(observed)?,
                f64::from_value(predicted)?,
            )),
            _ => Err("observation entry is not a 4-tuple".to_string()),
        })
        .collect()
}
