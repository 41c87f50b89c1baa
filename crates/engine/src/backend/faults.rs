//! Deterministic fault injection for the execution backends.
//!
//! The rescue discipline — verified cells stand, the rest are re-dispatched or re-run —
//! is only trustworthy if every failure mode it claims to handle is *exercised*, not
//! asserted in comments. This module scripts failures deterministically so tests and CI
//! soak runs can kill workers at cell k, garble or duplicate stream lines, truncate
//! streams, stall I/O, and refuse connections, then byte-compare the surviving report
//! against an in-process run.
//!
//! # The `LOCAL_FAULTS` script
//!
//! A script is a whitespace- (or `;`-) separated list of clauses:
//!
//! ```text
//! kill@K          exit(1) right before emitting result line K (0-based, process-cumulative)
//! truncate@K      flush what was written, then exit(0) before result K — a clean stream
//!                 that simply ends without a sentinel
//! garble@K        insert one deterministic non-protocol line before result K, then continue
//! dup@K           emit result line K twice (a repeated index the parent must reject)
//! delay@K=MS      sleep MS milliseconds before emitting result K (exercises read deadlines)
//! refuse*N        parent-side: refuse the first N connect attempts to the worker (retried)
//! ```
//!
//! A clause may be scoped to one worker of a fleet with a `w<i>:` prefix (`w1:kill@3`).
//! Scoping is resolved by whichever process *parses* the script: a coordinator keeps
//! `refuse` clauses for itself and forwards the rest of worker i's clauses — unscoped —
//! to that worker's environment; a worker or `--serve` daemon applies every unscoped
//! clause to its own result stream. Result indices count the process's *emission order*
//! cumulatively across served shards, so "kill@5" on a daemon means "die after serving 5
//! cells, whichever request they belong to".
//!
//! Every fired fault increments [`local_obs::metrics::FAULTS_INJECTED`] in the process
//! where it executes and logs one `[fault] …` stderr line.

use local_runtime::mix_seed;
use std::sync::atomic::{AtomicU64, Ordering};

/// One scripted fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Exit(1) right before emitting result line `at_cell`.
    Kill {
        /// 0-based result-line index, cumulative over the process lifetime.
        at_cell: u64,
    },
    /// Flush and exit(0) right before emitting result line `at_cell`: the stream ends
    /// cleanly but without a sentinel.
    Truncate {
        /// 0-based result-line index.
        at_cell: u64,
    },
    /// Insert one deterministic garbage line before result line `at_cell`, then keep
    /// emitting valid lines (mid-stream corruption).
    Garble {
        /// 0-based result-line index.
        at_cell: u64,
    },
    /// Emit result line `at_cell` twice.
    Duplicate {
        /// 0-based result-line index.
        at_cell: u64,
    },
    /// Sleep before emitting result line `at_cell`.
    Delay {
        /// 0-based result-line index.
        at_cell: u64,
        /// Sleep duration in milliseconds.
        ms: u64,
    },
    /// Parent-side: refuse the first `count` connect attempts to the worker.
    RefuseConnect {
        /// How many attempts to refuse before letting one through.
        count: u64,
    },
}

/// A fault scoped (optionally) to one worker of a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultClause {
    /// `Some(i)`: applies to worker i, resolved by the coordinator. `None`: applies to the
    /// process that parsed the script.
    pub worker: Option<usize>,
    /// What to do.
    pub action: FaultAction,
}

/// A parsed fault script; empty by default (no faults).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    clauses: Vec<FaultClause>,
}

impl FaultPlan {
    /// Parses a script (see the module docs for the grammar). An empty / all-whitespace
    /// script is the empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut clauses = Vec::new();
        for raw in spec.split([' ', '\t', '\n', ';']).filter(|s| !s.is_empty()) {
            clauses.push(parse_clause(raw)?);
        }
        Ok(FaultPlan { clauses })
    }

    /// The plan scripted in the `LOCAL_FAULTS` environment variable; the empty plan when
    /// the variable is unset.
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var("LOCAL_FAULTS") {
            Ok(spec) => {
                FaultPlan::parse(&spec).map_err(|e| format!("bad LOCAL_FAULTS {spec:?}: {e}"))
            }
            Err(_) => Ok(FaultPlan::default()),
        }
    }

    /// Like [`FaultPlan::from_env`], but a malformed script is *loudly ignored* (one stderr
    /// line, empty plan) instead of failing the embedding backend. The CLI parses strictly.
    pub fn from_env_lossy() -> FaultPlan {
        FaultPlan::from_env().unwrap_or_else(|e| {
            eprintln!("fault injection disabled: {e}");
            FaultPlan::default()
        })
    }

    /// No faults scripted?
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// The clauses a coordinator should hand to worker `i`, rewritten as unscoped clauses
    /// (ready for [`FaultPlan::render`] into the worker's environment). `refuse` clauses
    /// stay with the coordinator — they fault the *connection*, not the worker — so they
    /// are excluded here.
    pub fn for_worker(&self, i: usize) -> FaultPlan {
        FaultPlan {
            clauses: self
                .clauses
                .iter()
                .filter(|c| {
                    c.worker == Some(i) && !matches!(c.action, FaultAction::RefuseConnect { .. })
                })
                .map(|c| FaultClause { worker: None, action: c.action })
                .collect(),
        }
    }

    /// The unscoped clauses: what this process should apply to its own result stream.
    pub fn unscoped(&self) -> FaultPlan {
        FaultPlan { clauses: self.clauses.iter().filter(|c| c.worker.is_none()).copied().collect() }
    }

    /// How many connect attempts to worker `i` the coordinator should refuse.
    pub fn refuse_connects(&self, i: usize) -> u64 {
        self.clauses
            .iter()
            .filter(|c| c.worker == Some(i))
            .filter_map(|c| match c.action {
                FaultAction::RefuseConnect { count } => Some(count),
                _ => None,
            })
            .sum()
    }

    /// The `refuse` clauses of workers `workers[j]`, rescoped to `w<j>`: the parent-side
    /// plan for a fleet made of that subset of the workers, in that order.
    pub fn refusals_for(&self, workers: &[usize]) -> FaultPlan {
        let clauses = workers
            .iter()
            .enumerate()
            .map(|(j, &i)| (j, self.refuse_connects(i)))
            .filter(|&(_, count)| count > 0)
            .map(|(j, count)| FaultClause {
                worker: Some(j),
                action: FaultAction::RefuseConnect { count },
            })
            .collect();
        FaultPlan { clauses }
    }

    /// Renders the plan back into the script grammar ([`FaultPlan::parse`] inverts it).
    pub fn render(&self) -> String {
        self.clauses
            .iter()
            .map(|c| {
                let scope = match c.worker {
                    Some(i) => format!("w{i}:"),
                    None => String::new(),
                };
                let action = match c.action {
                    FaultAction::Kill { at_cell } => format!("kill@{at_cell}"),
                    FaultAction::Truncate { at_cell } => format!("truncate@{at_cell}"),
                    FaultAction::Garble { at_cell } => format!("garble@{at_cell}"),
                    FaultAction::Duplicate { at_cell } => format!("dup@{at_cell}"),
                    FaultAction::Delay { at_cell, ms } => format!("delay@{at_cell}={ms}"),
                    FaultAction::RefuseConnect { count } => format!("refuse*{count}"),
                };
                format!("{scope}{action}")
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

fn parse_clause(raw: &str) -> Result<FaultClause, String> {
    let (worker, rest) = match raw.strip_prefix('w') {
        Some(tail) => match tail.split_once(':') {
            Some((index, rest)) if index.chars().all(|c| c.is_ascii_digit()) => {
                let index: usize =
                    index.parse().map_err(|e| format!("bad worker index in {raw:?}: {e}"))?;
                (Some(index), rest)
            }
            _ => (None, raw),
        },
        None => (None, raw),
    };
    let at = |text: &str, verb: &str| -> Result<u64, String> {
        text.parse().map_err(|e| format!("bad cell index in {verb}@{text:?}: {e}"))
    };
    let action = if let Some(k) = rest.strip_prefix("kill@") {
        FaultAction::Kill { at_cell: at(k, "kill")? }
    } else if let Some(k) = rest.strip_prefix("truncate@") {
        FaultAction::Truncate { at_cell: at(k, "truncate")? }
    } else if let Some(k) = rest.strip_prefix("garble@") {
        FaultAction::Garble { at_cell: at(k, "garble")? }
    } else if let Some(k) = rest.strip_prefix("dup@") {
        FaultAction::Duplicate { at_cell: at(k, "dup")? }
    } else if let Some(k) = rest.strip_prefix("delay@") {
        let (cell, ms) =
            k.split_once('=').ok_or_else(|| format!("delay clause {raw:?} needs delay@K=MS"))?;
        FaultAction::Delay {
            at_cell: at(cell, "delay")?,
            ms: ms.parse().map_err(|e| format!("bad delay millis in {raw:?}: {e}"))?,
        }
    } else if let Some(n) = rest.strip_prefix("refuse*") {
        FaultAction::RefuseConnect {
            count: n.parse().map_err(|e| format!("bad refusal count in {raw:?}: {e}"))?,
        }
    } else {
        return Err(format!(
            "unknown fault clause {raw:?} (expected kill@K, truncate@K, garble@K, dup@K, \
             delay@K=MS, or refuse*N, optionally scoped w<i>:)"
        ));
    };
    Ok(FaultClause { worker, action })
}

/// What the injector wants done to the result line about to be written, in priority order
/// (a kill wins over everything else scripted at the same index; the derived ordering is
/// the priority, strongest first after `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LineFault {
    /// Emit the line normally.
    None,
    /// Exit(1) without writing the line.
    Kill,
    /// Flush, then exit(0) without writing the line.
    Truncate,
    /// Write one deterministic garbage line, then the real line.
    Garble,
    /// Write the line twice.
    Duplicate,
    /// Sleep this many milliseconds, then write the line.
    Delay(u64),
}

/// Applies a plan's unscoped clauses to this process's result stream. The result-line
/// counter is process-cumulative (one injector per process), so a daemon serving many
/// shard requests counts across all of them.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    results: AtomicU64,
}

impl FaultInjector {
    /// An injector over the plan's unscoped clauses.
    pub fn new(plan: &FaultPlan) -> FaultInjector {
        FaultInjector { plan: plan.unscoped(), results: AtomicU64::new(0) }
    }

    /// An injector scripted by `LOCAL_FAULTS` (malformed scripts are loudly ignored).
    pub fn from_env_lossy() -> FaultInjector {
        FaultInjector::new(&FaultPlan::from_env_lossy())
    }

    /// Is any stream fault scripted at all? (Fast path for un-faulted workers.)
    pub fn is_armed(&self) -> bool {
        !self.plan.clauses.is_empty()
    }

    /// Called right before each result line is written (under the stream lock, so indices
    /// follow emission order); returns the fault to apply to this line and advances the
    /// cumulative counter. Fires [`local_obs::metrics::FAULTS_INJECTED`] and logs when a
    /// fault is due.
    pub fn on_result_line(&self) -> LineFault {
        let k = self.results.fetch_add(1, Ordering::Relaxed);
        let mut fired = LineFault::None;
        for clause in &self.plan.clauses {
            let fault = match clause.action {
                FaultAction::Kill { at_cell } if at_cell == k => LineFault::Kill,
                FaultAction::Truncate { at_cell } if at_cell == k => LineFault::Truncate,
                FaultAction::Garble { at_cell } if at_cell == k => LineFault::Garble,
                FaultAction::Duplicate { at_cell } if at_cell == k => LineFault::Duplicate,
                FaultAction::Delay { at_cell, ms } if at_cell == k => LineFault::Delay(ms),
                _ => LineFault::None,
            };
            // Priority: the enum's declaration order, kill strongest.
            if fault != LineFault::None && (fired == LineFault::None || fault < fired) {
                fired = fault;
            }
        }
        if fired != LineFault::None {
            local_obs::counter_add(local_obs::metrics::FAULTS_INJECTED, 1);
            eprintln!("[fault] injecting {fired:?} at result line {k}");
        }
        fired
    }

    /// One deterministic garbage line for result index `k` — stable bytes (derived with the
    /// cell-seed mixer) that can never parse as a protocol record.
    pub fn garbage_line(k: u64) -> String {
        format!("<<garbled {:016x}>>", mix_seed(k, 0xFA017))
    }
}

/// Deterministic capped exponential backoff with jitter for reconnect attempt `attempt`
/// (1-based) to worker `worker`: `min(cap, base << (attempt-1))` plus up to half that
/// again of jitter, derived from the cell-seed mixer so runs are reproducible.
pub fn backoff_ms(worker: usize, attempt: u32, base_ms: u64, cap_ms: u64) -> u64 {
    let exp = base_ms.saturating_mul(1u64 << (attempt.saturating_sub(1)).min(16)).min(cap_ms);
    let jitter = mix_seed(worker as u64, attempt as u64) % (exp / 2 + 1);
    exp + jitter
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_round_trip_through_render() {
        let spec = "w0:kill@3 truncate@7 w2:garble@1 dup@4 w1:delay@2=50 w1:refuse*2";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.render(), spec);
        assert_eq!(FaultPlan::parse(&plan.render()).unwrap(), plan);
    }

    #[test]
    fn separators_and_empty_scripts_parse() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  \t ").unwrap().is_empty());
        let plan = FaultPlan::parse("kill@1;garble@2\n dup@3").unwrap();
        assert_eq!(plan.clauses.len(), 3);
    }

    #[test]
    fn malformed_scripts_are_rejected() {
        for bad in ["explode@3", "kill@x", "delay@2", "refuse*z", "w:kill@1", "kill"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn worker_scoping_splits_coordinator_and_worker_views() {
        let plan = FaultPlan::parse("w0:kill@3 w1:garble@2 w0:refuse*4 delay@9=10").unwrap();
        let w0 = plan.for_worker(0);
        assert_eq!(w0.render(), "kill@3", "refuse stays with the coordinator");
        assert_eq!(plan.for_worker(1).render(), "garble@2");
        assert!(plan.for_worker(2).is_empty());
        assert_eq!(plan.refuse_connects(0), 4);
        assert_eq!(plan.refuse_connects(1), 0);
        assert_eq!(plan.unscoped().render(), "delay@9=10");
        assert_eq!(plan.refusals_for(&[1, 0]).render(), "w1:refuse*4");
    }

    #[test]
    fn injector_fires_at_the_scripted_line_and_counts_cumulatively() {
        let injector = FaultInjector::new(&FaultPlan::parse("garble@2 dup@4").unwrap());
        let faults: Vec<LineFault> = (0..6).map(|_| injector.on_result_line()).collect();
        assert_eq!(
            faults,
            vec![
                LineFault::None,
                LineFault::None,
                LineFault::Garble,
                LineFault::None,
                LineFault::Duplicate,
                LineFault::None,
            ]
        );
    }

    #[test]
    fn kill_outranks_weaker_faults_at_the_same_index() {
        let injector = FaultInjector::new(&FaultPlan::parse("delay@0=5 kill@0").unwrap());
        assert_eq!(injector.on_result_line(), LineFault::Kill);
    }

    #[test]
    fn scoped_clauses_do_not_fire_in_the_parsing_process() {
        let injector = FaultInjector::new(&FaultPlan::parse("w0:kill@0").unwrap());
        assert!(!injector.is_armed());
        assert_eq!(injector.on_result_line(), LineFault::None);
    }

    #[test]
    fn backoff_grows_is_capped_and_deterministic() {
        let d1 = backoff_ms(0, 1, 25, 1000);
        let d4 = backoff_ms(0, 4, 25, 1000);
        assert!((25..2 * 25).contains(&d1));
        assert!((200..2 * 200).contains(&d4), "25 << 3 = 200, plus jitter");
        assert!(backoff_ms(0, 10, 25, 1000) <= 1500, "capped plus jitter");
        assert_eq!(backoff_ms(3, 2, 25, 1000), backoff_ms(3, 2, 25, 1000));
        assert_ne!(backoff_ms(0, 2, 25, 1000), backoff_ms(1, 2, 25, 1000), "jitter per worker");
    }

    #[test]
    fn garbage_lines_are_deterministic_and_non_protocol() {
        assert_eq!(FaultInjector::garbage_line(3), FaultInjector::garbage_line(3));
        assert_ne!(FaultInjector::garbage_line(3), FaultInjector::garbage_line(4));
        assert!(serde_json::from_str(&FaultInjector::garbage_line(3)).is_err());
    }
}
