//! The bounded shared/exclusive gate through which a `sweep --serve` daemon admits shard
//! requests.

use std::sync::{Condvar, Mutex};

#[derive(Debug)]
struct GateState {
    /// Shared holders currently inside the gate.
    active: usize,
    /// An exclusive holder is inside the gate.
    exclusive_active: bool,
    /// Exclusive acquirers waiting; shared acquirers yield to them so a fault-scripted or
    /// telemetry request can never be starved by a stream of plain ones.
    exclusive_waiting: usize,
}

/// A bounded semaphore with an exclusive mode.
///
/// Up to `capacity` *shared* holders run concurrently. An *exclusive* holder runs alone —
/// it waits for every shared holder to leave and blocks new ones from entering. The
/// daemon uses shared mode for plain shard requests (so one slow shard cannot starve a
/// second client) and exclusive mode for requests that need a deterministic process-wide
/// view: an armed fault script (its result-line counter is process-cumulative) or a
/// telemetry request (which resets the obs epoch).
///
/// Both acquire paths take a `keepalive` callback invoked roughly every 250ms while
/// blocked, so a queued network request can keep heartbeating its client instead of
/// tripping the client's shrunken liveness window.
#[derive(Debug)]
pub struct ConcurrencyGate {
    capacity: usize,
    state: Mutex<GateState>,
    ready: Condvar,
}

impl ConcurrencyGate {
    /// A gate admitting up to `capacity` concurrent shared holders (floored at 1).
    pub fn new(capacity: usize) -> Self {
        ConcurrencyGate {
            capacity: capacity.max(1),
            state: Mutex::new(GateState {
                active: 0,
                exclusive_active: false,
                exclusive_waiting: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// The configured shared capacity.
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Acquires a shared slot, blocking while the gate is full, exclusively held, or an
    /// exclusive acquirer is waiting. `keepalive` runs periodically while blocked.
    pub fn acquire(&self, mut keepalive: impl FnMut()) -> GateGuard<'_> {
        let mut state = self.state.lock().expect("gate poisoned");
        while state.exclusive_active || state.exclusive_waiting > 0 || state.active >= self.capacity
        {
            let (next, timeout) = self
                .ready
                .wait_timeout(state, std::time::Duration::from_millis(250))
                .expect("gate poisoned");
            state = next;
            if timeout.timed_out() {
                keepalive();
            }
        }
        state.active += 1;
        GateGuard { gate: self, exclusive: false }
    }

    /// Acquires the gate exclusively, blocking until every holder has left. `keepalive`
    /// runs periodically while blocked.
    pub fn acquire_exclusive(&self, mut keepalive: impl FnMut()) -> GateGuard<'_> {
        let mut state = self.state.lock().expect("gate poisoned");
        state.exclusive_waiting += 1;
        while state.exclusive_active || state.active > 0 {
            let (next, timeout) = self
                .ready
                .wait_timeout(state, std::time::Duration::from_millis(250))
                .expect("gate poisoned");
            state = next;
            if timeout.timed_out() {
                keepalive();
            }
        }
        state.exclusive_waiting -= 1;
        state.exclusive_active = true;
        GateGuard { gate: self, exclusive: true }
    }

    fn release(&self, exclusive: bool) {
        let mut state = self.state.lock().expect("gate poisoned");
        if exclusive {
            state.exclusive_active = false;
        } else {
            state.active -= 1;
        }
        drop(state);
        self.ready.notify_all();
    }
}

/// RAII handle for a gate slot; releases on drop.
#[must_use = "dropping the guard releases the gate slot"]
#[derive(Debug)]
pub struct GateGuard<'a> {
    gate: &'a ConcurrencyGate,
    exclusive: bool,
}

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        self.gate.release(self.exclusive);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn shared_holders_run_concurrently_up_to_capacity() {
        let gate = Arc::new(ConcurrencyGate::new(2));
        let inside = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let (gate, inside, peak) = (gate.clone(), inside.clone(), peak.clone());
            handles.push(std::thread::spawn(move || {
                let _slot = gate.acquire(|| {});
                let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(20));
                inside.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak <= 2, "capacity 2 exceeded: {peak}");
        assert!(peak == 2, "holders never overlapped — the gate serializes");
    }

    #[test]
    fn exclusive_holds_alone_and_is_not_starved() {
        let gate = Arc::new(ConcurrencyGate::new(4));
        let inside = Arc::new(AtomicUsize::new(0));
        let violations = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 0..8 {
            let (gate, inside, violations) = (gate.clone(), inside.clone(), violations.clone());
            handles.push(std::thread::spawn(move || {
                if i % 4 == 0 {
                    let _slot = gate.acquire_exclusive(|| {});
                    if inside.load(Ordering::SeqCst) != 0 {
                        violations.fetch_add(1, Ordering::SeqCst);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                } else {
                    let _slot = gate.acquire(|| {});
                    inside.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    inside.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(violations.load(Ordering::SeqCst), 0, "exclusive overlapped a shared holder");
    }

    #[test]
    fn keepalive_fires_while_blocked() {
        let gate = Arc::new(ConcurrencyGate::new(1));
        let beats = Arc::new(AtomicUsize::new(0));
        let held = gate.acquire(|| {});
        let waiter = {
            let (gate, beats) = (gate.clone(), beats.clone());
            std::thread::spawn(move || {
                let _slot = gate.acquire(|| {
                    beats.fetch_add(1, Ordering::SeqCst);
                });
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(600));
        drop(held);
        waiter.join().unwrap();
        assert!(beats.load(Ordering::SeqCst) >= 1, "blocked acquirer never kept alive");
    }

    #[test]
    fn capacity_is_floored_at_one() {
        assert_eq!(ConcurrencyGate::new(0).capacity(), 1);
    }
}
