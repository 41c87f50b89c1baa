//! Per-client job and cell accounting with exact reconciliation, as the coordinator
//! (`backend::coordinator`) books it.

use std::collections::BTreeMap;
use std::fmt;

/// Final accounting for one completed job.
///
/// The invariant the coordinator proves per job: every cell was emitted exactly once, so
/// `verified + rescued == cells`. `assigned` may exceed `cells` (a stripe re-dispatched
/// after a peer death counts its cells once per dispatch), and `redispatched` counts the
/// cells verified on a second-or-later dispatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Cells in the job.
    pub cells: u64,
    /// Cells whose result line came back from a fleet peer and verified.
    pub verified: u64,
    /// Cells recomputed locally after every eligible peer failed them.
    pub rescued: u64,
    /// Cells dispatched to a peer, summed over every dispatch attempt.
    pub assigned: u64,
    /// Cells verified on a re-dispatch (their first peer failed mid-stripe).
    pub redispatched: u64,
    /// Total microseconds the job's stripes spent queued before dispatch.
    pub queue_wait_micros: u64,
}

impl JobStats {
    /// True when every cell is accounted for exactly once.
    pub fn reconciles(&self) -> bool {
        self.verified + self.rescued == self.cells
    }
}

/// Running totals for one client across all its jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Jobs accepted from this client.
    pub jobs_submitted: u64,
    /// Jobs fully emitted back to this client.
    pub jobs_completed: u64,
    /// Cell totals accumulated from each completed job's [`JobStats`].
    pub cells: u64,
    /// Sum of per-job `verified`.
    pub verified: u64,
    /// Sum of per-job `rescued`.
    pub rescued: u64,
    /// Sum of per-job `assigned`.
    pub assigned: u64,
    /// Sum of per-job `redispatched`.
    pub redispatched: u64,
    /// Sum of per-job `queue_wait_micros`.
    pub queue_wait_micros: u64,
}

impl ClientStats {
    fn absorb(&mut self, job: &JobStats) {
        self.jobs_completed += 1;
        self.cells += job.cells;
        self.verified += job.verified;
        self.rescued += job.rescued;
        self.assigned += job.assigned;
        self.redispatched += job.redispatched;
        self.queue_wait_micros += job.queue_wait_micros;
    }

    /// True when every completed job's cells are accounted for exactly once.
    #[cfg(test)]
    pub fn reconciles(&self) -> bool {
        self.verified + self.rescued == self.cells
    }
}

impl fmt::Display for ClientStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "jobs {}/{} cells {} = verified {} + rescued {}; assigned {}; redispatched {}; queue-wait {} us",
            self.jobs_completed,
            self.jobs_submitted,
            self.cells,
            self.verified,
            self.rescued,
            self.assigned,
            self.redispatched,
            self.queue_wait_micros
        )
    }
}

/// The coordinator's book of record: one [`ClientStats`] row per client name, ordered
/// deterministically (BTreeMap) so rendered summaries are stable across runs.
#[derive(Debug, Default)]
pub struct ClientLedger {
    clients: BTreeMap<String, ClientStats>,
}

impl ClientLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        ClientLedger::default()
    }

    /// Records that `client` submitted a job.
    pub fn job_submitted(&mut self, client: &str) {
        self.clients.entry(client.to_string()).or_default().jobs_submitted += 1;
    }

    /// Folds a completed job's stats into `client`'s row.
    pub fn job_completed(&mut self, client: &str, job: &JobStats) {
        self.clients.entry(client.to_string()).or_default().absorb(job);
    }

    /// This client's running totals, if it ever submitted.
    pub fn client(&self, client: &str) -> Option<&ClientStats> {
        self.clients.get(client)
    }

    /// Clients whose completed jobs do **not** reconcile (should always be empty).
    #[cfg(test)]
    pub fn unreconciled(&self) -> Vec<&str> {
        self.clients
            .iter()
            .filter(|(_, stats)| !stats.reconciles())
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// One `client <name>: <stats>` line per client, in name order.
    #[cfg(test)]
    pub fn render(&self) -> Vec<String> {
        self.clients.iter().map(|(name, stats)| format!("client {name}: {stats}")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_fold_into_client_totals() {
        let mut ledger = ClientLedger::new();
        ledger.job_submitted("a");
        ledger.job_submitted("a");
        ledger.job_completed(
            "a",
            &JobStats {
                cells: 12,
                verified: 10,
                rescued: 2,
                assigned: 14,
                redispatched: 2,
                queue_wait_micros: 500,
            },
        );
        ledger.job_completed(
            "a",
            &JobStats { cells: 6, verified: 6, assigned: 6, ..JobStats::default() },
        );
        let a = ledger.client("a").unwrap();
        assert_eq!(a.jobs_submitted, 2);
        assert_eq!(a.jobs_completed, 2);
        assert_eq!(a.cells, 18);
        assert_eq!(a.verified, 16);
        assert_eq!(a.rescued, 2);
        assert_eq!(a.assigned, 20);
        assert_eq!(a.redispatched, 2);
        assert!(a.reconciles());
        assert!(ledger.unreconciled().is_empty());
    }

    #[test]
    fn a_lost_cell_is_flagged() {
        let mut ledger = ClientLedger::new();
        ledger.job_submitted("b");
        ledger.job_completed("b", &JobStats { cells: 10, verified: 9, ..JobStats::default() });
        assert_eq!(ledger.unreconciled(), vec!["b"]);
    }

    #[test]
    fn render_is_name_ordered_and_stable() {
        let mut ledger = ClientLedger::new();
        ledger.job_submitted("zeta");
        ledger.job_submitted("alpha");
        let lines = ledger.render();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("client alpha: jobs 0/1"));
        assert!(lines[1].starts_with("client zeta: jobs 0/1"));
    }
}
