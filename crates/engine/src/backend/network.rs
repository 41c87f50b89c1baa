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
//! requested, and a `{"done": n}` sentinel. Result lines go out in batches through one
//! `LineSink` (`backend/stream.rs`): a batch is written in one call when it passes
//! 64 KiB, when a line is queued after the oldest buffered one waited 20 ms, at the first
//! 5 ms tick after that, and before every heartbeat, the span dump, the sentinel, an error
//! line and every scripted fault action. Connections are persistent: a daemon serves
//! any number of requests per connection and any number of connections over its lifetime,
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
use super::stream::{
    write_line, Keyed, LineOutcome, LineSink, ResultLine, StripeStream, FLUSH_TICK,
};
use super::telemetry::{SpanDump, WorkerTelemetry};
use super::{
    backoff_ms, liveness_window, CellShard, EmitFn, ExecBackend, FaultPlan, InProcessBackend,
};
use crate::gate::ConcurrencyGate;
use crate::progress::ProgressMeter;
use crate::report::CellResult;
use serde::{Deserialize, Serialize, Value, Writer};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    /// [`dispatch::RunStripe`] for both remote fronts; `import_spans` is false for the
    /// coordinator, which never takes a trace (see [`StripeStream::discard_spans`]).
    pub(super) fn run_stripe(
        &self,
        peer: usize,
        stripe: &CellShard,
        emit: &EmitFn,
        import_spans: bool,
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
        let request = Request { shard: stripe, telemetry, client: self.client_label.as_deref() };
        if let Err(e) = write_line(&stream, &request) {
            self.record_state(peer, false);
            return Err((all(), format!("cannot ship the stripe to {}: {e}", self.peers[peer])));
        }

        let mut reader = BufReader::new(&stream);
        let mut verifier = StripeStream::new(stripe, format!("worker {peer}"), connect_offset);
        if !import_spans {
            verifier = verifier.discard_spans();
        }
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
            None => Ok(()),
            Some(reason) => Err((verifier.missing(), reason)),
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
        dispatch::run_job(
            &self.peers,
            self.rescue_threads,
            "sweep network backend",
            ShardJob(emit),
            shard,
            &|peer, stripe, emit| self.run_stripe(peer, stripe, emit, true),
        );
    }
}

/// The one job of a [`NetworkBackend::run_shard`] call: results go straight to the
/// scheduler's sink.
#[derive(Clone, Copy)]
struct ShardJob<'a>(&'a EmitFn<'a>);

impl Job for ShardJob<'_> {
    fn client(&self) -> &str {
        ""
    }

    fn deliver(&self, index: usize, result: CellResult, _landing: Landing) {
        (self.0)(index, result);
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
            write_error_line(&mut LineSink::new(&mut writer), e);
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

/// One request line: `{"shard": …}`, plus `"telemetry"` (the heartbeat interval in
/// milliseconds) and `"client"` (the submitting client's name) when set.
struct Request<'a> {
    shard: &'a CellShard,
    telemetry: Option<u64>,
    client: Option<&'a str>,
}

impl Serialize for Request<'_> {
    fn serialize(&self, out: &mut Writer<'_>) {
        out.begin_map();
        out.field("shard", self.shard);
        if let Some(ms) = self.telemetry {
            out.field("telemetry", &ms);
        }
        if let Some(name) = self.client {
            out.field("client", name);
        }
        out.end_map();
    }
}

/// Answers a request that cannot be served with one `{"error": …}` line, written at once
/// after whatever `out` still holds (best-effort: the caller hangs up next either way).
pub(super) fn write_error_line(out: &mut LineSink<impl Write>, message: String) {
    let _ = out.line_now(&Keyed("error", &message));
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
        let _ = write_line(out, &Keyed("telemetry", &beat));
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
/// [`InProcessBackend`], streams result lines plus the `{"done": n}` sentinel to `out`
/// through one batching [`LineSink`], and applies the process's fault injector to every
/// result line (`kill` and `truncate` clauses terminate the *calling process* when they
/// fire).
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
    let started = Instant::now();
    let backend = InProcessBackend::new(threads);
    let sink = Mutex::new(LineSink::new(out));
    let cells_done = AtomicU64::new(0);
    let heartbeat = || {
        let record = WorkerTelemetry {
            cells_done: cells_done.load(Ordering::Relaxed),
            wall_micros: started.elapsed().as_micros() as u64,
            counters: local_obs::counter_totals(),
        };
        // Best-effort: a heartbeat the client never reads must not fail the stripe (a
        // failed write breaks the sink, so the sentinel cannot go out after it).
        let _ = sink.lock().expect("result sink poisoned").line_now(&Keyed("telemetry", &record));
    };
    let mut write_error = None;
    {
        let write_error = Mutex::new(&mut write_error);
        std::thread::scope(|scope| {
            // The ticker: writes lines that waited past the bound, heartbeats every
            // interval when asked to, and ends as soon as `stop` is dropped.
            let (stop, stopped) = mpsc::channel::<()>();
            let (sink, heartbeat) = (&sink, &heartbeat);
            scope.spawn(move || {
                let interval = telemetry_ms.map(|ms| Duration::from_millis(ms.max(1)));
                let tick = interval.map_or(FLUSH_TICK, |interval| interval.min(FLUSH_TICK));
                let mut last_beat = Instant::now();
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(tick) {
                    if interval.is_some_and(|interval| last_beat.elapsed() >= interval) {
                        last_beat = Instant::now();
                        heartbeat();
                    } else {
                        let _ = sink.lock().expect("result sink poisoned").flush_stale();
                    }
                }
            });
            backend.run_shard(shard, &|index, result| {
                let line = ResultLine { index, cell: &result };
                cells_done.fetch_add(1, Ordering::Relaxed);
                let mut sink = sink.lock().expect("result sink poisoned");
                // The scripted faults fire under the sink lock, so "result line k" follows
                // emission order deterministically.
                if let Some(code) =
                    apply_line_fault(faults.on_result_line(), &mut sink, index, &line)
                {
                    std::process::exit(code);
                }
                if let Err(e) = sink.line(&line) {
                    write_error.lock().expect("error slot poisoned").get_or_insert(e.to_string());
                }
            });
            drop(stop);
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
        let mut sink = sink.lock().expect("result sink poisoned");
        sink.line_now(&Keyed("spans", &dump))
            .map_err(|e| format!("cannot write span dump: {e}"))?;
    }
    let mut sink = sink.lock().expect("result sink poisoned");
    sink.line_now(&Keyed("done", &shard.cells.len()))
        .map_err(|e| format!("cannot write sentinel: {e}"))
}

/// Applies the scripted fault of result line `index` (its value is `line`) to `sink` before
/// the line itself is queued. `kill` and `truncate` hand every earlier line to the writer
/// and return the exit code the caller then ends the process with (1 and 0); `delay` hands
/// them over before it sleeps, so the client sees a stalled stream rather than held-back
/// lines.
pub(super) fn apply_line_fault<W: Write>(
    fault: LineFault,
    sink: &mut LineSink<W>,
    index: usize,
    line: &dyn Serialize,
) -> Option<i32> {
    match fault {
        LineFault::Kill => {
            let _ = sink.flush();
            Some(1)
        }
        LineFault::Truncate => {
            // A clean stream that simply ends, without a sentinel.
            let _ = sink.flush();
            Some(0)
        }
        LineFault::Garble => {
            let _ = sink.raw(&FaultInjector::garbage_line(index as u64));
            None
        }
        LineFault::Duplicate => {
            let _ = sink.line(line);
            None
        }
        LineFault::Delay(ms) => {
            let _ = sink.flush();
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        LineFault::None => None,
    }
}
