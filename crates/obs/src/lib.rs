//! # local-obs — dependency-free structured observability
//!
//! A small tracing/metrics substrate shared by the simulator runtime, the sweep engine,
//! and its backends. Design constraints, in order:
//!
//! 1. **No-op when disabled.** A single relaxed atomic load ([`is_enabled`]) guards every
//!    recording call; instrumented hot paths pay nothing else when tracing is off, and the
//!    deterministic sweep outputs are byte-identical either way.
//! 2. **Zero allocations in steady state when enabled.** Metric identities are static
//!    ([`MetricId`] indexes a compile-time name table), labels are interned once up front
//!    ([`label`]), and events land in fixed-capacity per-thread buffers that are
//!    preallocated at [`enable`] time. When a buffer fills, further events are counted as
//!    dropped rather than grown — the counting-allocator assertion over the alternation
//!    hot path holds with tracing enabled.
//! 3. **Mergeable across processes.** Worker subprocesses ship their span buffers home as
//!    plain data; the coordinator stitches them into its own collector with
//!    [`import_track`], one track per worker thread, so one Chrome trace shows the whole
//!    fleet.
//!
//! Recording API: [`span`] (RAII), [`complete`] (explicit start/duration),
//! [`record`] (timestamped value), [`counter_add`] / [`gauge_max`] (process-global
//! aggregates). Export API: [`snapshot`] → [`Snapshot`] with Chrome-trace / NDJSON /
//! folded-stack renderers in [`export`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ------------------------------------------------------------------ metric registry ---------

/// Identity of a pre-registered metric: an index into the static [`metrics::NAMES`] table.
///
/// Using a `u16` index instead of a string keeps events `Copy` and recording allocation-free.
/// All metrics are declared up front in [`metrics`]; there is no dynamic registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(pub u16);

impl MetricId {
    /// The registered name of this metric.
    pub fn name(self) -> &'static str {
        metrics::NAMES[self.0 as usize]
    }
}

/// The static metric registry. Span metrics time phases; counter metrics aggregate
/// process-wide totals; value metrics attach a number to a point in time.
pub mod metrics {
    use super::MetricId;

    /// Whole-cell span (instance lookup + attempt + prune + verify). Container for the
    /// phase spans below; folded output skips it to avoid double counting.
    pub const CELL: MetricId = MetricId(0);
    /// Graph-instance generation span, labeled by family.
    pub const INSTANCE_GEN: MetricId = MetricId(1);
    /// Uniform-algorithm attempt span within a cell.
    pub const ATTEMPT: MetricId = MetricId(2);
    /// Pruning span within a cell.
    pub const PRUNE: MetricId = MetricId(3);
    /// Output-verification span within a cell (cell wall time not in attempt/prune).
    pub const VERIFY: MetricId = MetricId(4);
    /// Counter: messages delivered by the round engine.
    pub const MESSAGES_SENT: MetricId = MetricId(5);
    /// Counter: synchronous rounds executed.
    pub const ROUNDS: MetricId = MetricId(6);
    /// Value: nodes still active at the end of a round.
    pub const ACTIVE_NODES: MetricId = MetricId(7);
    /// Gauge (max): high-water mark of the session's point-to-point message cells (one per
    /// arc and round parity), recorded only by runs that send point-to-point. Broadcasts
    /// use one slot per node and are not counted, so a broadcast-only sweep leaves it at 0.
    pub const ARENA_ARCS: MetricId = MetricId(8);
    /// Counter: sweep cells completed.
    pub const CELLS_DONE: MetricId = MetricId(9);
    /// Counter: sweep cells served from the result cache.
    pub const CACHE_HITS: MetricId = MetricId(10);
    /// Value: observed wall micros for one cell, labeled by the cell label.
    pub const CELL_MICROS: MetricId = MetricId(11);
    /// Value: CostModel-predicted micros for one cell, labeled by the cell label.
    /// Shares the registry with [`CELL_MICROS`] so predicted vs. observed joins on label.
    pub const PREDICTED_MICROS: MetricId = MetricId(12);
    /// Gauge (max): peak resident set size of the process in KiB, sampled from the OS via
    /// [`super::sample_peak_rss_kb`].
    pub const PEAK_RSS_KB: MetricId = MetricId(13);
    /// Counter: successful backend connections to remote workers (network backend).
    pub const NET_CONNECTS: MetricId = MetricId(14);
    /// Counter: connect/reconnect attempts that had to be retried (backoff iterations,
    /// scripted refusals, re-sent sub-shards after a mid-stream failure).
    pub const NET_RETRIES: MetricId = MetricId(15);
    /// Counter: cells re-executed by the in-process rescue path after a worker failure.
    pub const RESCUED_CELLS: MetricId = MetricId(16);
    /// Counter: cells a failed worker left behind that were re-dispatched to (and completed
    /// by) a healthy remote peer instead of falling back in-process.
    pub const REDISPATCHED_CELLS: MetricId = MetricId(17);
    /// Counter: faults fired by the deterministic fault-injection layer (`LOCAL_FAULTS`),
    /// counted where the fault actually executes (worker side for stream faults, parent
    /// side for scripted connect refusals).
    pub const FAULTS_INJECTED: MetricId = MetricId(18);
    /// Value: per-worker connection state transition, labeled by the worker
    /// (`1` = connected/healthy, `0` = declared dead).
    pub const WORKER_STATE: MetricId = MetricId(19);
    /// Counter: sweep jobs accepted by the multi-client coordinator.
    pub const COORD_JOBS: MetricId = MetricId(20);
    /// Gauge (max): peak number of jobs simultaneously admitted (queued or running)
    /// by the coordinator.
    pub const COORD_JOBS_ACTIVE: MetricId = MetricId(21);
    /// Counter: cells the coordinator dispatched to fleet daemons (re-dispatches of a
    /// failed peer's remainder count again — this is assignments, not cells).
    pub const COORD_CELLS_ASSIGNED: MetricId = MetricId(22);
    /// Counter: cells verified off a fleet stream and forwarded to the submitting client.
    pub const COORD_CELLS_VERIFIED: MetricId = MetricId(23);
    /// Counter: summed microseconds stripes spent queued before dispatch; also recorded
    /// per dispatch as a value event labeled by the client.
    pub const COORD_QUEUE_WAIT_MICROS: MetricId = MetricId(24);
    /// Gauge (max): peak number of fleet peers simultaneously serving a stripe
    /// (fleet utilization high-water mark).
    pub const COORD_FLEET_BUSY: MetricId = MetricId(25);
    /// Gauge (max): segment files in the binary result store.
    pub const STORE_SEGMENTS: MetricId = MetricId(26);
    /// Counter: records appended to the binary result store.
    pub const STORE_RECORDS: MetricId = MetricId(27);
    /// Counter: bytes appended to the binary result store (record preludes included).
    pub const STORE_BYTES: MetricId = MetricId(28);
    /// Counter: microseconds the opening scan spent rebuilding the store index.
    pub const STORE_INDEX_REBUILD_MICROS: MetricId = MetricId(29);
    /// Counter: result-store lookups that found a stored cell.
    pub const STORE_HITS: MetricId = MetricId(30);
    /// Counter: result-store lookups that missed.
    pub const STORE_MISSES: MetricId = MetricId(31);

    /// Names, indexed by [`MetricId`]. Order is append-only: these names are wire- and
    /// trace-visible, so existing entries must never be renamed or reordered.
    pub const NAMES: &[&str] = &[
        "cell",
        "instance-gen",
        "attempt",
        "prune",
        "verify",
        "messages-sent",
        "rounds",
        "active-nodes",
        "arena-arcs",
        "cells-done",
        "cache-hits",
        "cell-micros",
        "predicted-micros",
        "peak-rss-kb",
        "net-connects",
        "net-retries",
        "rescued-cells",
        "redispatched-cells",
        "faults-injected",
        "worker-state",
        "coord-jobs",
        "coord-jobs-active",
        "coord-cells-assigned",
        "coord-cells-verified",
        "coord-queue-wait-micros",
        "coord-fleet-busy-peers",
        "store-segments",
        "store-records-appended",
        "store-bytes-written",
        "store-index-rebuild-micros",
        "store-hits",
        "store-misses",
    ];
}

/// Number of registered metrics.
pub const METRIC_COUNT: usize = metrics::NAMES.len();

/// Looks a metric up by its registered name (used when merging worker telemetry, where
/// metrics cross the process boundary as strings). Unknown names — e.g. from a newer
/// worker — return `None` and are skipped by the merge.
pub fn metric_by_name(name: &str) -> Option<MetricId> {
    metrics::NAMES.iter().position(|&n| n == name).map(|i| MetricId(i as u16))
}

// ------------------------------------------------------------------ events -----------------

/// An interned label. `LabelId::NONE` means "no label"; anything else indexes the
/// collector's intern table. Intern once (at setup or per cell), reuse in hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelId(u32);

impl LabelId {
    /// The empty label.
    pub const NONE: LabelId = LabelId(0);
}

/// What an [`Event`] means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A time range: `start_micros .. start_micros + dur_micros`.
    Span,
    /// A number observed at `start_micros`; `dur_micros` is 0.
    Value,
}

/// One recorded event. `Copy` and fixed-size so buffers never allocate per event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Which metric.
    pub metric: MetricId,
    /// Interned label (or [`LabelId::NONE`]).
    pub label: LabelId,
    /// Microseconds since the collector epoch.
    pub start_micros: u64,
    /// Span duration in microseconds (0 for values).
    pub dur_micros: u64,
    /// Attached value (0 for plain spans).
    pub value: u64,
    /// Span or value.
    pub kind: EventKind,
}

/// Default per-thread event-buffer capacity (events, not bytes).
pub const DEFAULT_EVENT_CAPACITY: usize = 64 * 1024;

// ------------------------------------------------------------------ collector ---------------

/// Per-thread event buffer, registered with the global collector on first use.
struct TrackBuf {
    name: Mutex<String>,
    events: Mutex<Vec<Event>>,
    dropped: AtomicU64,
}

impl TrackBuf {
    fn push(&self, event: Event) {
        let mut events = self.events.lock().expect("track buffer poisoned");
        if events.len() < events.capacity() {
            events.push(event);
        } else {
            drop(events);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// An event imported from another process (a worker's span dump) or resolved out of a
/// snapshot: same shape as [`Event`] but with owned strings instead of table indices.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Metric name.
    pub metric: String,
    /// Label text ("" for none).
    pub label: String,
    /// Microseconds since the *exporting* collector's epoch (import applies an offset).
    pub start_micros: u64,
    /// Span duration in microseconds.
    pub dur_micros: u64,
    /// Attached value.
    pub value: u64,
    /// True for spans, false for values.
    pub is_span: bool,
}

/// A fully-resolved track: a named event stream (one per thread, plus imported ones).
#[derive(Debug, Clone)]
pub struct TrackSnapshot {
    /// Track name ("coordinator", "thread-2", "worker 1 thread-0", ...).
    pub name: String,
    /// Events in recording order.
    pub events: Vec<EventRecord>,
}

/// Everything the collector holds, with ids resolved to strings. Feed to the renderers in
/// [`export`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// All tracks with at least one event.
    pub tracks: Vec<TrackSnapshot>,
    /// Non-zero counters/gauges, in registry order.
    pub counters: Vec<(String, u64)>,
    /// Events lost to full buffers.
    pub dropped: u64,
}

impl Snapshot {
    /// True when nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty() && self.counters.is_empty()
    }

    /// Total events across all tracks.
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }
}

struct LabelTable {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

struct Collector {
    epoch: Instant,
    capacity: Mutex<usize>,
    counters: Vec<AtomicU64>,
    tracks: Mutex<Vec<Arc<TrackBuf>>>,
    labels: Mutex<LabelTable>,
    imported: Mutex<Vec<TrackSnapshot>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: OnceLock<Collector> = OnceLock::new();

fn collector() -> &'static Collector {
    COLLECTOR.get_or_init(|| Collector {
        epoch: Instant::now(),
        capacity: Mutex::new(DEFAULT_EVENT_CAPACITY),
        counters: (0..METRIC_COUNT).map(|_| AtomicU64::new(0)).collect(),
        tracks: Mutex::new(Vec::new()),
        labels: Mutex::new(LabelTable { names: Vec::new(), index: HashMap::new() }),
        imported: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static TRACK: OnceLock<Arc<TrackBuf>> = const { OnceLock::new() };
}

fn with_track<R>(f: impl FnOnce(&TrackBuf) -> R) -> R {
    TRACK.with(|cell| {
        let track = cell.get_or_init(|| {
            let c = collector();
            let capacity = *c.capacity.lock().expect("capacity poisoned");
            let mut tracks = c.tracks.lock().expect("tracks poisoned");
            let buf = Arc::new(TrackBuf {
                name: Mutex::new(format!("thread-{}", tracks.len())),
                events: Mutex::new(Vec::with_capacity(capacity)),
                dropped: AtomicU64::new(0),
            });
            tracks.push(Arc::clone(&buf));
            buf
        });
        f(track)
    })
}

// ------------------------------------------------------------------ lifecycle ---------------

/// Is the observability layer recording? One relaxed load; the entire cost of the layer
/// when disabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on with the default per-thread buffer capacity.
pub fn enable() {
    enable_with_capacity(DEFAULT_EVENT_CAPACITY);
}

/// Turns recording on. Threads that first record after this call get buffers of
/// `capacity` events; when a buffer fills, events are dropped (and counted), never grown.
pub fn enable_with_capacity(capacity: usize) {
    let c = collector();
    *c.capacity.lock().expect("capacity poisoned") = capacity.max(16);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off. Buffers keep their contents for [`snapshot`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clears all recorded events, counters, labels, and imported tracks. A live thread keeps
/// its registered buffer and its capacity; the track of a thread that has exited is
/// dropped (a [`snapshot`] taken before the reset still saw its events). A process that
/// spawns a thread per request and resets per request thus holds a bounded set of tracks.
pub fn reset() {
    let c = collector();
    for counter in &c.counters {
        counter.store(0, Ordering::Relaxed);
    }
    release_finished();
    for track in c.tracks.lock().expect("tracks poisoned").iter() {
        track.events.lock().expect("track buffer poisoned").clear();
        track.dropped.store(0, Ordering::Relaxed);
    }
    let mut labels = c.labels.lock().expect("labels poisoned");
    labels.names.clear();
    labels.index.clear();
}

/// Drops the tracks of exited threads and every imported track; counters, labels and the
/// events of live threads stay. A long-lived process that never takes a [`snapshot`] (the
/// coordinator) calls it when it goes idle, so the threads and span dumps it has seen do
/// not accumulate.
pub fn release_finished() {
    let c = collector();
    // An exited thread's `TRACK` is gone, which leaves the collector's handle the only one.
    c.tracks.lock().expect("tracks poisoned").retain(|track| Arc::strong_count(track) > 1);
    c.imported.lock().expect("imported poisoned").clear();
}

/// Microseconds since the collector epoch (process start, effectively). Monotonic.
pub fn now_micros() -> u64 {
    collector().epoch.elapsed().as_micros() as u64
}

/// Names the current thread's track in exported traces ("coordinator", "worker 2", ...).
pub fn set_track_name(name: &str) {
    if !is_enabled() {
        return;
    }
    with_track(|t| {
        let mut n = t.name.lock().expect("track name poisoned");
        n.clear();
        n.push_str(name);
    });
}

// ------------------------------------------------------------------ recording ---------------

/// Interns `text` and returns its id. Allocates on first sight of a string — call at
/// setup or per cell, not per round, and reuse the id. Returns [`LabelId::NONE`] when
/// disabled.
pub fn label(text: &str) -> LabelId {
    if !is_enabled() {
        return LabelId::NONE;
    }
    let mut labels = collector().labels.lock().expect("labels poisoned");
    if let Some(&id) = labels.index.get(text) {
        return LabelId(id);
    }
    let arc: Arc<str> = Arc::from(text);
    labels.names.push(Arc::clone(&arc));
    let id = labels.names.len() as u32; // ids are 1-based; 0 is NONE
    labels.index.insert(arc, id);
    LabelId(id)
}

/// Adds `delta` to a process-global counter. Allocation-free.
#[inline]
pub fn counter_add(metric: MetricId, delta: u64) {
    if !is_enabled() {
        return;
    }
    collector().counters[metric.0 as usize].fetch_add(delta, Ordering::Relaxed);
}

/// Raises a process-global gauge to at least `value` (high-water mark). Allocation-free.
#[inline]
pub fn gauge_max(metric: MetricId, value: u64) {
    if !is_enabled() {
        return;
    }
    collector().counters[metric.0 as usize].fetch_max(value, Ordering::Relaxed);
}

/// Samples the process's peak resident set size in KiB (Linux `VmHWM` from
/// `/proc/self/status`; 0 on platforms without procfs) and raises the
/// [`metrics::PEAK_RSS_KB`] gauge to it when tracing is enabled. Returns the sampled value
/// either way, so callers can report memory without arming the recorder. Call it at the
/// points whose footprint matters (after a sweep, after graph generation): `VmHWM` is a
/// high-water mark, so the gauge ends up at the true process-lifetime peak regardless.
pub fn sample_peak_rss_kb() -> u64 {
    let status = match std::fs::read_to_string("/proc/self/status") {
        Ok(status) => status,
        Err(_) => return 0,
    };
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .unwrap_or(0);
    gauge_max(metrics::PEAK_RSS_KB, kb);
    kb
}

/// Current value of a counter/gauge (0 when disabled or never touched).
pub fn counter_value(metric: MetricId) -> u64 {
    match COLLECTOR.get() {
        Some(c) => c.counters[metric.0 as usize].load(Ordering::Relaxed),
        None => 0,
    }
}

/// Records a timestamped value event on the current thread's track. Allocation-free in
/// steady state (buffer preallocated, events dropped when full).
#[inline]
pub fn record(metric: MetricId, label: LabelId, value: u64) {
    if !is_enabled() {
        return;
    }
    let event = Event {
        metric,
        label,
        start_micros: now_micros(),
        dur_micros: 0,
        value,
        kind: EventKind::Value,
    };
    with_track(|t| t.push(event));
}

/// Records a completed span with an explicit start and duration — for phases whose
/// boundaries were measured independently (e.g. rebuilt from per-cell micros fields).
#[inline]
pub fn complete(metric: MetricId, label: LabelId, start_micros: u64, dur_micros: u64) {
    complete_with_value(metric, label, start_micros, dur_micros, 0);
}

/// [`complete`] with an attached value.
#[inline]
pub fn complete_with_value(
    metric: MetricId,
    label: LabelId,
    start_micros: u64,
    dur_micros: u64,
    value: u64,
) {
    if !is_enabled() {
        return;
    }
    let event = Event { metric, label, start_micros, dur_micros, value, kind: EventKind::Span };
    with_track(|t| t.push(event));
}

/// Opens a span that records itself when dropped. When disabled this is free (the guard
/// is disarmed and drop does nothing).
#[inline]
pub fn span(metric: MetricId, label: LabelId) -> SpanGuard {
    let armed = is_enabled();
    SpanGuard { metric, label, start_micros: if armed { now_micros() } else { 0 }, armed }
}

/// RAII guard returned by [`span`]; records a complete span event on drop.
#[must_use = "a span guard records its span when dropped"]
pub struct SpanGuard {
    metric: MetricId,
    label: LabelId,
    start_micros: u64,
    armed: bool,
}

impl SpanGuard {
    /// Discards the span without recording it.
    pub fn cancel(mut self) {
        self.armed = false;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed && is_enabled() {
            let dur = now_micros().saturating_sub(self.start_micros);
            complete(self.metric, self.label, self.start_micros, dur);
        }
    }
}

// ------------------------------------------------------------------ merge & snapshot --------

/// Adds a foreign track (a worker thread's event stream) to the collector, shifting its
/// timestamps by `offset_micros` so worker-local time lands on this process's timeline.
/// No-op when disabled.
pub fn import_track(name: String, events: Vec<EventRecord>, offset_micros: u64) {
    if !is_enabled() {
        return;
    }
    let shifted = events
        .into_iter()
        .map(|mut e| {
            e.start_micros = e.start_micros.saturating_add(offset_micros);
            e
        })
        .collect();
    collector()
        .imported
        .lock()
        .expect("imported poisoned")
        .push(TrackSnapshot { name, events: shifted });
}

/// Folds a counter that arrived by name from another process into the matching local
/// counter. Returns false (and does nothing) for unknown names. No-op when disabled.
pub fn merge_counter_by_name(name: &str, value: u64) -> bool {
    match metric_by_name(name) {
        Some(id) => {
            counter_add(id, value);
            true
        }
        None => false,
    }
}

/// Current non-zero counter/gauge totals by name — a light snapshot for periodic
/// heartbeats (no event buffers are touched or cloned).
pub fn counter_totals() -> Vec<(String, u64)> {
    match COLLECTOR.get() {
        None => Vec::new(),
        Some(c) => metrics::NAMES
            .iter()
            .enumerate()
            .filter_map(|(i, &name)| {
                let v = c.counters[i].load(Ordering::Relaxed);
                (v != 0).then(|| (name.to_string(), v))
            })
            .collect(),
    }
}

/// Resolves every buffer into an owned [`Snapshot`]: per-thread tracks (with label ids
/// resolved), imported worker tracks, non-zero counters, and the dropped-event total.
/// Does not clear anything; call [`reset`] for that.
pub fn snapshot() -> Snapshot {
    let c = collector();
    let labels = c.labels.lock().expect("labels poisoned");
    let resolve = |id: LabelId| -> String {
        if id.0 == 0 {
            String::new()
        } else {
            labels.names.get(id.0 as usize - 1).map(|s| s.to_string()).unwrap_or_default()
        }
    };
    let mut tracks = Vec::new();
    let mut dropped = 0;
    for buf in c.tracks.lock().expect("tracks poisoned").iter() {
        dropped += buf.dropped.load(Ordering::Relaxed);
        let events = buf.events.lock().expect("track buffer poisoned");
        if events.is_empty() {
            continue;
        }
        tracks.push(TrackSnapshot {
            name: buf.name.lock().expect("track name poisoned").clone(),
            events: events
                .iter()
                .map(|e| EventRecord {
                    metric: e.metric.name().to_string(),
                    label: resolve(e.label),
                    start_micros: e.start_micros,
                    dur_micros: e.dur_micros,
                    value: e.value,
                    is_span: e.kind == EventKind::Span,
                })
                .collect(),
        });
    }
    drop(labels);
    tracks.extend(c.imported.lock().expect("imported poisoned").iter().cloned());
    let counters = metrics::NAMES
        .iter()
        .enumerate()
        .filter_map(|(i, &name)| {
            let v = c.counters[i].load(Ordering::Relaxed);
            (v != 0).then(|| (name.to_string(), v))
        })
        .collect();
    Snapshot { tracks, counters, dropped }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Obs state is process-global; tests that enable/reset it must not interleave.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    #[test]
    fn disabled_layer_records_nothing() {
        let _g = locked();
        disable();
        reset();
        counter_add(metrics::MESSAGES_SENT, 5);
        record(metrics::ACTIVE_NODES, LabelId::NONE, 7);
        let _span = span(metrics::ATTEMPT, LabelId::NONE);
        drop(_span);
        assert_eq!(label("anything"), LabelId::NONE);
        assert_eq!(counter_value(metrics::MESSAGES_SENT), 0);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn counters_gauges_and_events_survive_snapshot() {
        let _g = locked();
        reset();
        enable();
        counter_add(metrics::MESSAGES_SENT, 3);
        counter_add(metrics::MESSAGES_SENT, 4);
        gauge_max(metrics::ARENA_ARCS, 10);
        gauge_max(metrics::ARENA_ARCS, 6); // lower: must not regress the high-water mark
        let l = label("mis;sparse-gnp");
        assert_eq!(label("mis;sparse-gnp"), l, "labels intern to a stable id");
        complete(metrics::ATTEMPT, l, 100, 50);
        record(metrics::ACTIVE_NODES, LabelId::NONE, 12);
        let snap = snapshot();
        disable();
        assert_eq!(counter_value(metrics::MESSAGES_SENT), 7);
        assert_eq!(counter_value(metrics::ARENA_ARCS), 10);
        assert!(snap.counters.contains(&("messages-sent".to_string(), 7)));
        let events: Vec<_> = snap.tracks.iter().flat_map(|t| &t.events).collect();
        let attempt = events.iter().find(|e| e.metric == "attempt").expect("attempt span");
        assert_eq!(attempt.label, "mis;sparse-gnp");
        assert_eq!((attempt.start_micros, attempt.dur_micros), (100, 50));
        assert!(attempt.is_span);
        let active = events.iter().find(|e| e.metric == "active-nodes").expect("value event");
        assert_eq!(active.value, 12);
        assert!(!active.is_span);
        reset();
    }

    #[test]
    fn span_guard_records_a_span_and_cancel_suppresses_it() {
        let _g = locked();
        reset();
        enable();
        {
            let _s = span(metrics::PRUNE, LabelId::NONE);
        }
        span(metrics::VERIFY, LabelId::NONE).cancel();
        let snap = snapshot();
        disable();
        let metrics_seen: Vec<_> =
            snap.tracks.iter().flat_map(|t| &t.events).map(|e| e.metric.as_str()).collect();
        assert!(metrics_seen.contains(&"prune"));
        assert!(!metrics_seen.contains(&"verify"), "cancelled span must not record");
        reset();
    }

    #[test]
    fn full_buffers_drop_events_instead_of_growing() {
        let _g = locked();
        reset();
        enable_with_capacity(16);
        // The current thread's buffer may have been created earlier (capacity applies to
        // *new* buffers), so spill far past any plausible capacity and just check that
        // the drop accounting engages rather than the buffer growing unboundedly.
        for i in 0..DEFAULT_EVENT_CAPACITY + 64 {
            record(metrics::ACTIVE_NODES, LabelId::NONE, i as u64);
        }
        let snap = snapshot();
        disable();
        assert!(snap.dropped > 0, "overflow must be counted as dropped");
        assert!(snap.event_count() <= DEFAULT_EVENT_CAPACITY + 64 - snap.dropped as usize);
        reset();
    }

    #[test]
    fn reset_drops_the_tracks_of_exited_threads() {
        let _g = locked();
        reset();
        enable_with_capacity(64);
        for i in 0..100 {
            std::thread::spawn(move || record(metrics::ACTIVE_NODES, LabelId::NONE, i))
                .join()
                .unwrap();
        }
        let before = snapshot();
        let mut values: Vec<u64> = before
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.metric == "active-nodes")
            .map(|e| e.value)
            .collect();
        values.sort_unstable();
        assert_eq!(values, (0..100).collect::<Vec<_>>(), "exited threads' events stay visible");
        reset();
        disable();
        // This thread never recorded; one more track may belong to an earlier test's thread
        // that is still exiting.
        let registered = collector().tracks.lock().unwrap().len();
        assert!(registered <= 1, "{registered} tracks survive 100 exited threads");
    }

    #[test]
    fn release_finished_keeps_counters_and_live_tracks() {
        let _g = locked();
        reset();
        enable_with_capacity(64);
        counter_add(metrics::MESSAGES_SENT, 3);
        record(metrics::ACTIVE_NODES, LabelId::NONE, 1);
        for i in 0..10 {
            std::thread::spawn(move || record(metrics::ACTIVE_NODES, LabelId::NONE, i))
                .join()
                .unwrap();
        }
        import_track("worker 0 thread-0".to_string(), Vec::new(), 0);
        release_finished();
        let after = snapshot();
        disable();
        assert_eq!(counter_value(metrics::MESSAGES_SENT), 3, "counters stay");
        assert_eq!(after.event_count(), 1, "only this live thread's event stays");
        assert!(after.tracks.iter().all(|t| t.name != "worker 0 thread-0"), "imports go");
        reset();
    }

    #[test]
    fn imported_tracks_are_offset_and_merged() {
        let _g = locked();
        reset();
        enable();
        import_track(
            "worker 1 thread-0".to_string(),
            vec![EventRecord {
                metric: "attempt".to_string(),
                label: "mis;tree".to_string(),
                start_micros: 10,
                dur_micros: 5,
                value: 0,
                is_span: true,
            }],
            1000,
        );
        assert!(merge_counter_by_name("messages-sent", 41));
        assert!(!merge_counter_by_name("not-a-metric", 1));
        let snap = snapshot();
        disable();
        let track = snap
            .tracks
            .iter()
            .find(|t| t.name == "worker 1 thread-0")
            .expect("imported track present");
        assert_eq!(track.events[0].start_micros, 1010, "offset applied");
        assert_eq!(counter_value(metrics::MESSAGES_SENT), 41);
        reset();
    }

    #[test]
    fn metric_lookup_round_trips_every_registered_name() {
        for (i, &name) in metrics::NAMES.iter().enumerate() {
            assert_eq!(metric_by_name(name), Some(MetricId(i as u16)));
            assert_eq!(MetricId(i as u16).name(), name);
        }
        assert_eq!(metric_by_name("definitely-unregistered"), None);
    }
}
