//! The fleet dispatcher: the one path by which cells run on remote peers, and the one
//! place where a remote failure degrades.
//!
//! Both remote fronts drive it. [`super::NetworkBackend::run_shard`] runs one job — its
//! shard — through [`run_job`], with one stripe and one scoped worker per peer, until the
//! last cell lands. The coordinator ([`super::CoordinatorServer`]) keeps one long-lived
//! [`Dispatcher`] over its fleet and submits every client's jobs to it, four stripes per
//! peer so that clients interleave.
//!
//! A job is split into instance-grouped stripes ([`CellShard::stripe`]) and queued on the
//! [`FairScheduler`] longest first. Each peer's worker pulls a stripe and runs it through
//! the injected [`RunStripe`] — in production [`super::NetworkBackend::run_stripe`], in
//! tests a scripted fake. When the peer fails, the worker
//!
//! 1. retires the peer for the dispatcher's lifetime,
//! 2. re-queues the stripe's unverified remainder with that peer marked as attempted, and
//! 3. rescues in-process whatever no live peer can still serve.
//!
//! Cells verified on a re-queued stripe count on
//! [`local_obs::metrics::REDISPATCHED_CELLS`], rescued cells on
//! [`local_obs::metrics::RESCUED_CELLS`].

use super::{CellShard, EmitFn, ExecBackend, InProcessBackend};
use crate::cost::CostModel;
use crate::report::CellResult;
use crate::scheduler::{FairScheduler, TaskEntry};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs one stripe on one peer: `run(peer, stripe, emit)` emits each verified cell by its
/// stripe index, and on failure returns the stripe indices still missing with the reason.
pub(crate) type RunStripe<'a> =
    dyn Fn(usize, &CellShard, &EmitFn) -> Result<(), (Vec<usize>, String)> + Sync + 'a;

/// How a delivered cell was computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Landing {
    /// Verified from the first peer its stripe was dealt to.
    Verified,
    /// Verified from a peer that received it on a re-queued stripe.
    Redispatched,
    /// Recomputed in-process because no live peer could serve it.
    Rescued,
}

/// What the dispatcher needs from the job a stripe belongs to.
pub(crate) trait Job: Clone + Send + Sync {
    /// The fairness key: the scheduler shares the fleet between clients by cost.
    fn client(&self) -> &str;

    /// Hands one result to the job at its index in the job.
    fn deliver(&self, index: usize, result: CellResult, landing: Landing);

    /// Called before a stripe of `cells` cells runs or is rescued. True when nobody awaits
    /// the job's results any more: the job has then booked the cells as dropped, and the
    /// stripe is not run.
    fn discard(&self, _cells: usize) -> bool {
        false
    }

    /// A stripe of `cells` cells leaves the queue for a peer after `wait_micros` queued.
    fn dispatched(&self, _cells: usize, _wait_micros: u64) {}
}

/// One stripe of one job, queued for the fleet.
struct Stripe<J> {
    job: J,
    cells: CellShard,
    /// Each stripe cell's index in its job.
    indices: Vec<usize>,
    enqueued_micros: u64,
}

impl<J: Job> Stripe<J> {
    /// The stripe as a scheduler task, costed by the cost model's static prior.
    fn entry(self) -> TaskEntry<Stripe<J>> {
        let cost: f64 = self
            .cells
            .cells
            .iter()
            .map(|cell| CostModel::base_cost(&cell.problem, &cell.family, cell.n).max(1.0))
            .sum();
        let client = self.job.client().to_string();
        TaskEntry::new(self, client, cost)
    }

    /// The stripe's cells at the given stripe indices, queued from now.
    fn subset(&self, keep: &[usize]) -> Stripe<J> {
        Stripe {
            job: self.job.clone(),
            cells: CellShard {
                base_seed: self.cells.base_seed,
                code_version: self.cells.code_version.clone(),
                cells: keep.iter().map(|&i| self.cells.cells[i].clone()).collect(),
            },
            indices: keep.iter().map(|&i| self.indices[i]).collect(),
            enqueued_micros: local_obs::now_micros(),
        }
    }
}

/// The fair stripe queue over a fixed fleet, with the failure discipline of the
/// [module docs](self).
pub(crate) struct Dispatcher<J> {
    scheduler: FairScheduler<Stripe<J>>,
    /// Peer addresses, for the failure log.
    peers: Vec<String>,
    rescue_threads: usize,
    /// Prefix of every log line (`sweep network backend`, `coord`).
    log: &'static str,
    /// Set for a one-job dispatcher ([`run_job`]): shut the scheduler down when
    /// `outstanding` reaches zero, which releases every idle worker.
    close_when_drained: bool,
    /// Cells submitted and not yet delivered or dropped. The AcqRel updates order every
    /// delivery before the shutdown that the last one triggers.
    outstanding: AtomicUsize,
}

impl<J: Job> Dispatcher<J> {
    /// A dispatcher over `peers` (all initially live) that rescues with `rescue_threads`
    /// threads (`0` = available parallelism) and prefixes its log lines with `log`.
    pub fn new(peers: Vec<String>, rescue_threads: usize, log: &'static str) -> Self {
        Dispatcher {
            scheduler: FairScheduler::new(peers.len()),
            peers,
            rescue_threads,
            log,
            close_when_drained: false,
            outstanding: AtomicUsize::new(0),
        }
    }

    /// Queues the cells of `shard` for `job` — cell `i` is the job's cell `indices[i]` —
    /// as up to `stripes` instance-grouped stripes, costliest first. With no live peer
    /// left, rescues them in the calling thread instead.
    pub fn submit(&self, job: &J, shard: &CellShard, indices: &[usize], stripes: usize) {
        if shard.cells.is_empty() {
            return;
        }
        self.outstanding.fetch_add(shard.cells.len(), Ordering::AcqRel);
        let mut entries: Vec<TaskEntry<Stripe<J>>> = shard
            .stripe(stripes)
            .into_iter()
            .filter(|(stripe, _)| !stripe.cells.is_empty())
            .map(|(cells, positions)| {
                Stripe {
                    job: job.clone(),
                    cells,
                    indices: positions.into_iter().map(|p| indices[p]).collect(),
                    enqueued_micros: local_obs::now_micros(),
                }
                .entry()
            })
            .collect();
        entries.sort_by(|a, b| b.cost.total_cmp(&a.cost));
        if let Err(entries) = self.scheduler.submit(entries) {
            self.rescue_missing(entries.into_iter().map(|entry| entry.payload).collect());
        }
    }

    /// Peer `peer`'s dispatch loop: pull the next fairly-scheduled stripe and `run` it.
    /// On failure the peer is retired — `run` has already spent its reconnect budget — its
    /// unverified remainder re-queued for the rest of the fleet, and whatever the fleet can
    /// no longer serve rescued. Returns when the peer retires or the dispatcher shuts down.
    pub fn worker(&self, peer: usize, run: &RunStripe) {
        while let Some(entry) = self.scheduler.next(peer) {
            let TaskEntry { payload: stripe, attempted, .. } = entry;
            let count = stripe.cells.cells.len();
            if stripe.job.discard(count) {
                self.landed(count);
                continue;
            }
            let wait = local_obs::now_micros().saturating_sub(stripe.enqueued_micros);
            stripe.job.dispatched(count, wait);
            let landing =
                if attempted.is_empty() { Landing::Verified } else { Landing::Redispatched };
            let emit = |i: usize, result: CellResult| {
                if landing == Landing::Redispatched {
                    local_obs::counter_add(local_obs::metrics::REDISPATCHED_CELLS, 1);
                }
                stripe.job.deliver(stripe.indices[i], result, landing);
                self.landed(1);
            };
            let Err((missing, reason)) = run(peer, &stripe.cells, &emit) else { continue };
            eprintln!(
                "{}: peer {peer} ({}) failed ({reason}); retiring it and re-queuing {} cells",
                self.log,
                self.peers[peer],
                missing.len()
            );
            // Mark the peer dead *first*, then re-queue under the new fleet view, so no
            // stripe can be dealt back to the corpse in between.
            let mut orphans: Vec<Stripe<J>> =
                self.scheduler.peer_down(peer).into_iter().map(|entry| entry.payload).collect();
            if !missing.is_empty() {
                let mut remainder = stripe.subset(&missing).entry();
                remainder.attempted = attempted;
                remainder.mark_attempted(peer);
                if let Err(remainder) = self.scheduler.requeue(remainder) {
                    orphans.push(remainder.payload);
                }
            }
            self.rescue_missing(orphans);
            return;
        }
    }

    /// Ends every worker's loop.
    pub fn shutdown(&self) {
        self.scheduler.shutdown();
    }

    /// Recomputes stripes no live peer can serve with an [`InProcessBackend`] — the
    /// lossless path of last resort, and the only one — counting their cells on
    /// [`local_obs::metrics::RESCUED_CELLS`].
    fn rescue_missing(&self, orphans: Vec<Stripe<J>>) {
        let cells: usize = orphans.iter().map(|orphan| orphan.cells.cells.len()).sum();
        if cells > 0 {
            eprintln!(
                "{}: no live peer can serve {cells} cells; rescuing them in-process",
                self.log
            );
        }
        for stripe in orphans {
            let count = stripe.cells.cells.len();
            if stripe.job.discard(count) {
                self.landed(count);
                continue;
            }
            local_obs::counter_add(local_obs::metrics::RESCUED_CELLS, count as u64);
            InProcessBackend::new(self.rescue_threads).run_shard(&stripe.cells, &|i, result| {
                stripe.job.deliver(stripe.indices[i], result, Landing::Rescued);
                self.landed(1);
            });
        }
    }

    /// Books `cells` cells as delivered or dropped; closes a one-job dispatcher once the
    /// last one lands.
    fn landed(&self, cells: usize) {
        if self.outstanding.fetch_sub(cells, Ordering::AcqRel) == cells && self.close_when_drained {
            self.scheduler.shutdown();
        }
    }
}

/// Runs one job — every cell of `shard`, cell `i` delivered as the job's index `i` — over
/// `peers`: one stripe and one scoped worker per peer, returning once every cell landed.
/// With no peers, the whole shard is rescued in the calling thread.
pub(crate) fn run_job<J: Job>(
    peers: &[String],
    rescue_threads: usize,
    log: &'static str,
    job: J,
    shard: &CellShard,
    run: &RunStripe,
) {
    let mut dispatcher = Dispatcher::new(peers.to_vec(), rescue_threads, log);
    dispatcher.close_when_drained = true;
    let indices: Vec<usize> = (0..shard.cells.len()).collect();
    dispatcher.submit(&job, shard, &indices, peers.len());
    if dispatcher.outstanding.load(Ordering::Acquire) == 0 {
        return;
    }
    let dispatcher = &dispatcher;
    std::thread::scope(|scope| {
        for peer in 0..peers.len() {
            scope.spawn(move || {
                // A worker that unwinds (a panicking emit) leaves cells that will never
                // land: release the other workers so the panic can propagate.
                struct CloseOnUnwind<'d, J: Job>(&'d Dispatcher<J>);
                impl<J: Job> Drop for CloseOnUnwind<'_, J> {
                    fn drop(&mut self) {
                        if std::thread::panicking() {
                            self.0.shutdown();
                        }
                    }
                }
                let _guard = CloseOnUnwind(dispatcher);
                dispatcher.worker(peer, run);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::workload;
    use crate::scenario::Scenario;
    use local_graphs::Family;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};

    /// A job that records how each of its cells landed.
    #[derive(Clone, Copy)]
    struct Tally<'a>(&'a Mutex<Vec<(usize, Landing)>>);

    impl Job for Tally<'_> {
        fn client(&self) -> &str {
            "tally"
        }

        fn deliver(&self, index: usize, _result: CellResult, landing: Landing) {
            self.0.lock().unwrap().push((index, landing));
        }
    }

    const MAX_CELLS: usize = 40;

    /// `MAX_CELLS` cells on distinct instances, and their results, computed once.
    fn fixture() -> &'static (CellShard, Vec<CellResult>) {
        static FIXTURE: OnceLock<(CellShard, Vec<CellResult>)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let cells = (0..MAX_CELLS)
                .map(|i| Scenario {
                    problem: workload("luby-mis"),
                    family: Family::SparseGnp.into(),
                    n: 8 + i,
                    replicate: 0,
                })
                .collect();
            let shard = CellShard::new(5, cells);
            let results = Mutex::new(vec![None; MAX_CELLS]);
            InProcessBackend::new(1)
                .run_shard(&shard, &|i, result| results.lock().unwrap()[i] = Some(result));
            let results = results.into_inner().unwrap().into_iter().map(Option::unwrap).collect();
            (shard, results)
        })
    }

    /// A scripted fleet: peer `p` serves result lines until it has sent `budget[p]` of them
    /// over its lifetime (`None`: forever), then fails like a killed daemon. Every cell it
    /// was sent before is remembered, so the test knows which landings are re-dispatches.
    struct FakeFleet {
        budget: Vec<Option<usize>>,
        served: Mutex<Vec<usize>>,
        sent: Mutex<HashSet<usize>>,
        verified: AtomicUsize,
        redispatched: AtomicUsize,
    }

    impl FakeFleet {
        fn run(
            &self,
            peer: usize,
            stripe: &CellShard,
            emit: &EmitFn,
        ) -> Result<(), (Vec<usize>, String)> {
            let (_, results) = fixture();
            let seen: Vec<bool> = {
                let mut sent = self.sent.lock().unwrap();
                stripe.cells.iter().map(|cell| !sent.insert(cell.n - 8)).collect()
            };
            for (i, cell) in stripe.cells.iter().enumerate() {
                {
                    let mut served = self.served.lock().unwrap();
                    if self.budget[peer].is_some_and(|budget| served[peer] >= budget) {
                        return Err(((i..stripe.cells.len()).collect(), "scripted death".into()));
                    }
                    served[peer] += 1;
                }
                self.verified.fetch_add(1, Ordering::Relaxed);
                if seen[i] {
                    self.redispatched.fetch_add(1, Ordering::Relaxed);
                }
                emit(i, results[cell.n - 8].clone());
            }
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn every_cell_lands_exactly_once_under_scripted_peer_deaths(
            peers in 0usize..5,
            cells in 1usize..MAX_CELLS + 1,
            budgets in prop::collection::vec(0usize..24, 4),
            healthy in prop::collection::vec(any::<bool>(), 4),
        ) {
            let (full, _) = fixture();
            let shard = CellShard::new(full.base_seed, full.cells[..cells].to_vec());
            let fleet = FakeFleet {
                budget: (0..peers).map(|p| (!healthy[p]).then_some(budgets[p])).collect(),
                served: Mutex::new(vec![0; peers]),
                sent: Mutex::new(HashSet::new()),
                verified: AtomicUsize::new(0),
                redispatched: AtomicUsize::new(0),
            };
            let landed = Mutex::new(Vec::new());
            let names: Vec<String> = (0..peers).map(|p| format!("fake-{p}")).collect();
            run_job(&names, 1, "test", Tally(&landed), &shard,
                &|peer, stripe, emit| fleet.run(peer, stripe, emit));

            let landed = landed.into_inner().unwrap();
            let mut indices: Vec<usize> = landed.iter().map(|&(i, _)| i).collect();
            indices.sort_unstable();
            prop_assert_eq!(indices, (0..cells).collect::<Vec<_>>(), "each cell exactly once");
            let count = |kind: Landing| landed.iter().filter(|&&(_, l)| l == kind).count();
            let verified = count(Landing::Verified) + count(Landing::Redispatched);
            prop_assert_eq!(verified, fleet.verified.load(Ordering::Relaxed));
            prop_assert_eq!(verified + count(Landing::Rescued), cells);
            prop_assert_eq!(
                count(Landing::Redispatched),
                fleet.redispatched.load(Ordering::Relaxed),
                "only cells that landed on a re-queued stripe count as re-dispatched"
            );
            if fleet.budget.iter().any(Option::is_none) {
                prop_assert_eq!(count(Landing::Rescued), 0, "a healthy peer absorbs everything");
            }
        }
    }

    #[test]
    fn an_empty_fleet_rescues_the_whole_job_in_the_calling_thread() {
        let (full, results) = fixture();
        let landed = Mutex::new(Vec::new());
        run_job(&[], 1, "test", Tally(&landed), full, &|_, _, _| {
            panic!("no peer to run a stripe on")
        });
        let landed = landed.into_inner().unwrap();
        assert_eq!(landed.len(), results.len());
        assert!(landed.iter().all(|&(_, landing)| landing == Landing::Rescued));
        let mut indices: Vec<usize> = landed.iter().map(|&(i, _)| i).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..results.len()).collect::<Vec<_>>());
    }
}
