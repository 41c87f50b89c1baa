//! The live sweep progress HUD: a coordinator-side aggregator behind `sweep --progress`.
//!
//! A [`ProgressMeter`] is cloned into the sweep (which reports cell completions and the
//! CostModel's per-cell predictions) and into the process backend (whose workers report
//! heartbeat throughput), and renders a single overwriting stderr status line: cells
//! done/total, cache hits, throughput, per-worker counts, and an ETA weighted by the
//! predicted micros of the cells still outstanding — so one giant straggler cell shows up
//! as a long ETA even when most of the *count* is already done.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shared progress aggregator; clones observe the same state.
#[derive(Clone)]
pub struct ProgressMeter {
    inner: Arc<Inner>,
}

struct Inner {
    started: Instant,
    /// Total grid cells (including cache hits).
    total: AtomicUsize,
    /// Cells served from the cache (counted as done from the start).
    cached: AtomicUsize,
    /// Cells executed so far.
    done: AtomicUsize,
    /// Predicted micros per *shard index* (the cost-ordered missed cells).
    predicted: Mutex<Vec<f64>>,
    /// Sum of `predicted` for completed shard cells.
    predicted_done: Mutex<f64>,
    /// Per-worker completed-cell counts, keyed by worker label.
    workers: Mutex<BTreeMap<String, u64>>,
    /// Live result-store status callback (segments/records/hit counters), appended at the
    /// end of the status line when a store is attached.
    store_status: Mutex<Option<Arc<dyn Fn() -> String + Send + Sync>>>,
    last_render: Mutex<Instant>,
}

impl Default for ProgressMeter {
    fn default() -> Self {
        ProgressMeter::new()
    }
}

impl std::fmt::Debug for ProgressMeter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressMeter").field("status", &self.status_line()).finish()
    }
}

impl ProgressMeter {
    /// A fresh meter (knows nothing until [`ProgressMeter::begin`]).
    pub fn new() -> Self {
        ProgressMeter {
            inner: Arc::new(Inner {
                started: Instant::now(),
                total: AtomicUsize::new(0),
                cached: AtomicUsize::new(0),
                done: AtomicUsize::new(0),
                predicted: Mutex::new(Vec::new()),
                predicted_done: Mutex::new(0.0),
                workers: Mutex::new(BTreeMap::new()),
                store_status: Mutex::new(None),
                last_render: Mutex::new(Instant::now() - Duration::from_secs(1)),
            }),
        }
    }

    /// Arms the meter after the cache probe: the grid size, how many cells the cache
    /// already served, and the CostModel's predicted micros for each cell of the shard
    /// (indexed by shard position, i.e. cost order).
    pub fn begin(&self, total_cells: usize, cache_hits: usize, predicted_micros: Vec<f64>) {
        self.inner.total.store(total_cells, Ordering::Relaxed);
        self.inner.cached.store(cache_hits, Ordering::Relaxed);
        *self.inner.predicted.lock().expect("predictions poisoned") = predicted_micros;
        self.render(true);
    }

    /// Marks shard cell `k` complete.
    pub fn cell_done(&self, k: usize) {
        self.inner.done.fetch_add(1, Ordering::Relaxed);
        {
            let predicted = self.inner.predicted.lock().expect("predictions poisoned");
            if let Some(&p) = predicted.get(k) {
                *self.inner.predicted_done.lock().expect("predicted done poisoned") += p;
            }
        }
        self.render(false);
    }

    /// Updates one worker's absolute completed-cell count (from a result line or a
    /// heartbeat record).
    pub fn worker_progress(&self, worker: &str, cells_done: u64) {
        let mut workers = self.inner.workers.lock().expect("workers poisoned");
        match workers.get_mut(worker) {
            Some(entry) => *entry = (*entry).max(cells_done),
            None => {
                workers.insert(worker.to_string(), cells_done);
            }
        }
    }

    /// Attaches a result-store status callback; its output is appended verbatim to the
    /// end of every rendered status line (e.g. `store: 2 seg, 120 rec, 80 hit`).
    pub fn set_store_status(&self, status: Arc<dyn Fn() -> String + Send + Sync>) {
        *self.inner.store_status.lock().expect("store status poisoned") = Some(status);
    }

    /// Renders a final status line and moves to a fresh line.
    pub fn finish(&self) {
        self.render(true);
        eprintln!();
    }

    /// The current status line (also what gets printed). Public so tests can assert on
    /// the HUD without scraping stderr.
    pub fn status_line(&self) -> String {
        let total = self.inner.total.load(Ordering::Relaxed);
        let cached = self.inner.cached.load(Ordering::Relaxed);
        let done = self.inner.done.load(Ordering::Relaxed);
        let elapsed = self.inner.started.elapsed().as_secs_f64().max(1e-6);
        let mut line = format!("sweep: {}/{} cells", cached + done, total);
        if cached > 0 {
            line.push_str(&format!(" ({cached} cached)"));
        }
        line.push_str(&format!(" | {:.1} cells/s", done as f64 / elapsed));
        if let Some(eta) = self.eta_seconds() {
            line.push_str(&format!(" | eta {}", human_secs(eta)));
        }
        let workers = self.inner.workers.lock().expect("workers poisoned");
        if !workers.is_empty() {
            line.push_str(" |");
            for (worker, cells) in workers.iter() {
                line.push_str(&format!(" {worker}:{cells}"));
            }
        }
        drop(workers);
        let store_status = self.inner.store_status.lock().expect("store status poisoned");
        if let Some(status) = store_status.as_ref() {
            line.push_str(&format!(" | {}", status()));
        }
        line
    }

    /// Predicted seconds remaining: outstanding predicted micros over the observed
    /// predicted-micros throughput. `None` until at least one cell finished (no rate yet).
    pub fn eta_seconds(&self) -> Option<f64> {
        let done = self.inner.done.load(Ordering::Relaxed);
        if done == 0 {
            return None;
        }
        let predicted_total: f64 =
            self.inner.predicted.lock().expect("predictions poisoned").iter().sum();
        let predicted_done = *self.inner.predicted_done.lock().expect("predicted done poisoned");
        if predicted_done <= 0.0 {
            return None;
        }
        let elapsed = self.inner.started.elapsed().as_secs_f64();
        let rate = predicted_done / elapsed.max(1e-6); // predicted-micros retired per second
        Some(((predicted_total - predicted_done).max(0.0) / rate).max(0.0))
    }

    fn render(&self, force: bool) {
        {
            let mut last = self.inner.last_render.lock().expect("render clock poisoned");
            if !force && last.elapsed() < Duration::from_millis(100) {
                return;
            }
            *last = Instant::now();
        }
        let line = self.status_line();
        // \x1b[K clears the remainder of a longer previous line. `eprint!` (stderr is
        // unbuffered) rather than a raw `stderr()` handle, so the test harness captures the
        // HUD instead of letting it interleave with its own per-test result lines.
        eprint!("\r{line}\x1b[K");
    }
}

fn human_secs(secs: f64) -> String {
    if secs >= 90.0 {
        format!("{:.0}m{:02.0}s", (secs / 60.0).floor(), secs % 60.0)
    } else {
        format!("{secs:.1}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_line_tracks_done_cached_and_workers() {
        let meter = ProgressMeter::new();
        meter.begin(10, 3, vec![100.0; 7]);
        let line = meter.status_line();
        assert!(line.starts_with("sweep: 3/10 cells (3 cached)"), "{line}");
        assert_eq!(meter.eta_seconds(), None, "no rate before the first completion");
        meter.cell_done(0);
        meter.cell_done(1);
        meter.worker_progress("w0", 1);
        meter.worker_progress("w1", 1);
        meter.worker_progress("w0", 2); // absolute counts: max wins
        meter.worker_progress("w0", 1); // stale heartbeat must not regress
        let line = meter.status_line();
        assert!(line.starts_with("sweep: 5/10 cells (3 cached)"), "{line}");
        assert!(line.contains("w0:2"), "{line}");
        assert!(line.contains("w1:1"), "{line}");
        assert!(line.contains("eta"), "{line}");
    }

    #[test]
    fn eta_weighs_outstanding_predicted_micros() {
        let meter = ProgressMeter::new();
        // One cheap cell done, one predicted-10x cell outstanding: the ETA must be about
        // ten times the elapsed time, not equal to it (cell *counts* would say 1:1).
        meter.begin(2, 0, vec![100.0, 1000.0]);
        meter.cell_done(0);
        let eta = meter.eta_seconds().expect("one completion gives a rate");
        let elapsed = meter.inner.started.elapsed().as_secs_f64();
        let ratio = eta / elapsed.max(1e-9);
        assert!((9.0..11.0).contains(&ratio), "eta/elapsed = {ratio}");
    }

    #[test]
    fn store_status_is_appended_at_the_end_of_the_line() {
        let meter = ProgressMeter::new();
        meter.begin(4, 1, vec![100.0; 3]);
        meter.set_store_status(Arc::new(|| "store: 1 seg, 2 rec, 1 hit".to_string()));
        let line = meter.status_line();
        assert!(line.starts_with("sweep: 1/4 cells"), "{line}");
        assert!(line.ends_with(" | store: 1 seg, 2 rec, 1 hit"), "{line}");
    }

    #[test]
    fn human_secs_formats_minutes() {
        assert_eq!(human_secs(4.25), "4.2s");
        assert_eq!(human_secs(125.0), "2m05s");
    }
}
