//! The aggregation/report layer: per-cell results, grouped summaries, JSON, CSV, and
//! folded-stack (flamegraph) output — plus a streaming summarizer for sweeps too large to
//! hold every [`CellResult`] in memory.

use serde::{Deserialize, Serialize};

/// The measured outcome of one executed cell.
///
/// `Deserialize` is what lets result lines from `sweep --serve` daemons round-trip through
/// JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// Workload name (see [`crate::WorkloadSpec::name`]).
    pub problem: String,
    /// Family name (see [`local_graphs::FamilySpec::name`]).
    pub family: String,
    /// Size the grid requested.
    pub requested_n: usize,
    /// Nodes of the generated instance (families may round the size).
    pub n: usize,
    /// Edges of the generated instance.
    pub edges: usize,
    /// Replicate index within the cell's `(problem, family, n)` group.
    pub replicate: u64,
    /// The cell's derived execution seed.
    pub seed: u64,
    /// Rounds of the transformed uniform algorithm.
    pub uniform_rounds: u64,
    /// Messages delivered by the uniform algorithm's black-box attempts.
    pub uniform_messages: u64,
    /// Rounds of the non-uniform baseline executed with correct guesses.
    pub nonuniform_rounds: u64,
    /// Messages delivered by the non-uniform baseline.
    pub nonuniform_messages: u64,
    /// `uniform_rounds / max(nonuniform_rounds, 1)` — the paper's constant-factor claim.
    pub overhead_ratio: f64,
    /// Sub-iterations (black-box attempts) the uniform driver executed, when applicable.
    pub subiterations: u64,
    /// `true` when the uniform driver terminated on its own (every node pruned).
    pub solved: bool,
    /// `true` when the produced outputs passed the problem's validator.
    pub valid: bool,
    /// Wall-clock execution time of the whole cell, in microseconds. Excluded from
    /// determinism comparisons (see [`CellResult::deterministic_view`]).
    pub wall_micros: u64,
    /// Wall-clock time the uniform driver spent inside black-box attempts, in microseconds
    /// (0 for problems without an alternation driver). Non-deterministic.
    pub attempt_micros: u64,
    /// Wall-clock time the uniform driver spent in pruning + configuration shrinking, in
    /// microseconds. Non-deterministic.
    pub prune_micros: u64,
    /// Wall-clock time spent generating the cell's graph instance, in microseconds (shared
    /// across the cells that reuse the instance). Non-deterministic.
    pub instance_micros: u64,
}

impl CellResult {
    /// A copy with every (non-deterministic) wall-time field zeroed, for byte-identical
    /// comparison between sequential and parallel sweeps.
    pub fn deterministic_view(&self) -> CellResult {
        CellResult {
            wall_micros: 0,
            attempt_micros: 0,
            prune_micros: 0,
            instance_micros: 0,
            ..self.clone()
        }
    }

    /// The CSV header matching [`CellResult::csv_row`]; `profile` appends the per-phase
    /// timing columns.
    pub fn csv_header(profile: bool) -> String {
        let mut out = String::from(
            "problem,family,requested_n,n,edges,replicate,seed,uniform_rounds,\
             uniform_messages,nonuniform_rounds,nonuniform_messages,overhead_ratio,\
             subiterations,solved,valid,wall_micros",
        );
        if profile {
            out.push_str(",attempt_micros,prune_micros,instance_micros");
        }
        out
    }

    /// One CSV row (no trailing newline); text fields are RFC-4180-quoted.
    pub fn csv_row(&self, profile: bool) -> String {
        let mut out = format!(
            "{},{},{},{},{},{},{},{},{},{},{},{:.6},{},{},{},{}",
            csv_escape(&self.problem),
            csv_escape(&self.family),
            self.requested_n,
            self.n,
            self.edges,
            self.replicate,
            self.seed,
            self.uniform_rounds,
            self.uniform_messages,
            self.nonuniform_rounds,
            self.nonuniform_messages,
            self.overhead_ratio,
            self.subiterations,
            self.solved,
            self.valid,
            self.wall_micros
        );
        if profile {
            out.push_str(&format!(
                ",{},{},{}",
                self.attempt_micros, self.prune_micros, self.instance_micros
            ));
        }
        out
    }
}

/// The per-cell numeric columns a summary consumes — everything a
/// [`SummaryAccumulator`] needs, without the strings or phase timings of a full
/// [`CellResult`]. The binary result store decodes these directly from fixed offsets in a
/// record, so columnar report scans never materialize `CellResult` rows at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellColumns {
    /// Rounds of the transformed uniform algorithm.
    pub uniform_rounds: u64,
    /// Messages delivered by the uniform algorithm's black-box attempts.
    pub uniform_messages: u64,
    /// Rounds of the non-uniform baseline.
    pub nonuniform_rounds: u64,
    /// Messages delivered by the non-uniform baseline.
    pub nonuniform_messages: u64,
    /// `uniform_rounds / max(nonuniform_rounds, 1)`.
    pub overhead_ratio: f64,
    /// Wall-clock execution time of the cell, in microseconds.
    pub wall_micros: u64,
    /// Whether the uniform driver terminated on its own.
    pub solved: bool,
    /// Whether the outputs validated.
    pub valid: bool,
}

impl From<&CellResult> for CellColumns {
    fn from(cell: &CellResult) -> CellColumns {
        CellColumns {
            uniform_rounds: cell.uniform_rounds,
            uniform_messages: cell.uniform_messages,
            nonuniform_rounds: cell.nonuniform_rounds,
            nonuniform_messages: cell.nonuniform_messages,
            overhead_ratio: cell.overhead_ratio,
            wall_micros: cell.wall_micros,
            solved: cell.solved,
            valid: cell.valid,
        }
    }
}

/// The summary of one `(problem, family)` group of cells.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GroupSummary {
    /// Problem name.
    pub problem: String,
    /// Family name.
    pub family: String,
    /// Cells in the group.
    pub cells: usize,
    /// Cells whose outputs validated.
    pub valid_cells: usize,
    /// Cells whose uniform driver terminated on its own.
    pub solved_cells: usize,
    /// Mean uniform rounds.
    pub mean_uniform_rounds: f64,
    /// Median uniform rounds.
    pub p50_uniform_rounds: u64,
    /// 99th-percentile uniform rounds.
    pub p99_uniform_rounds: u64,
    /// Maximum uniform rounds.
    pub max_uniform_rounds: u64,
    /// Mean uniform-over-non-uniform round ratio.
    pub mean_overhead_ratio: f64,
    /// Maximum overhead ratio.
    pub max_overhead_ratio: f64,
    /// Total messages delivered by uniform executions in the group.
    pub total_uniform_messages: u64,
    /// Total messages delivered by the non-uniform baselines in the group.
    pub total_nonuniform_messages: u64,
    /// Mean per-cell *message* overhead ratio `uniform_messages / max(nonuniform_messages, 1)`
    /// — the message-complexity dimension of the uniform transformations, which the paper
    /// bounds only in rounds. Synthetic black boxes that simulate no messages report 0.
    pub mean_message_overhead_ratio: f64,
    /// Total wall time spent in the group, in microseconds.
    pub total_wall_micros: u64,
}

/// Quotes a CSV field per RFC 4180 when it contains a comma, quote, or line break; problem
/// and family names are free-form strings, so interpolating them raw would corrupt rows.
fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// `q`-th percentile (nearest-rank) of an already sorted slice — the reference
/// the histogram walk in [`percentile_hist`] is checked against.
#[cfg(test)]
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Streaming group statistics: everything a [`GroupSummary`] needs, kept per group while
/// cells are folded in one at a time and the full results are dropped (or never held — the
/// streaming scheduler writes them straight to the result store).
///
/// Rounds are kept as a value→count histogram rather than one word per cell, so memory is
/// `O(groups × distinct round values)` — effectively `O(columns)` for million-cell sweeps,
/// where round counts repeat heavily — while the exact nearest-rank percentiles are
/// unchanged.
#[derive(Debug, Default)]
struct GroupStats {
    cells: usize,
    valid_cells: usize,
    solved_cells: usize,
    rounds_hist: std::collections::BTreeMap<u64, u64>,
    rounds_sum: u64,
    overhead_sum: f64,
    overhead_max: f64,
    message_ratio_sum: f64,
    uniform_messages: u64,
    nonuniform_messages: u64,
    wall_micros: u64,
}

impl GroupStats {
    fn apply(&mut self, stat: CellStat) {
        self.cells += 1;
        self.valid_cells += usize::from(stat.valid);
        self.solved_cells += usize::from(stat.solved);
        *self.rounds_hist.entry(stat.rounds).or_default() += 1;
        self.rounds_sum += stat.rounds;
        self.overhead_sum += stat.overhead_ratio;
        self.overhead_max = self.overhead_max.max(stat.overhead_ratio);
        self.message_ratio_sum += stat.message_ratio;
        self.uniform_messages += stat.uniform_messages;
        self.nonuniform_messages += stat.nonuniform_messages;
        self.wall_micros += stat.wall_micros;
    }
}

/// `q`-th percentile (nearest-rank) over a value→count histogram holding `total` samples;
/// identical to [`percentile`] over the expanded sorted multiset.
fn percentile_hist(hist: &std::collections::BTreeMap<u64, u64>, total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    for (&value, &count) in hist {
        cumulative += count;
        if cumulative >= rank {
            return value;
        }
    }
    hist.keys().next_back().copied().unwrap_or(0)
}

/// A cell waiting for its canonical position to come up (see
/// [`SummaryAccumulator::fold_columns_at`]); ordered by position only.
#[derive(Debug, Clone, Copy)]
struct Pending {
    position: usize,
    slot: usize,
    stat: CellStat,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.position == other.position
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.position.cmp(&other.position)
    }
}

/// Folds cells into per-`(problem, family)` [`GroupSummary`]s incrementally, in
/// first-appearance order of the groups. [`summarize`] is the one-shot wrapper; the
/// streaming scheduler feeds cells as they complete (after pre-registering the groups in
/// canonical order so completion order cannot reorder the report).
///
/// Cells are applied to the group statistics strictly in canonical-position order: an
/// advancing cursor applies in-order arrivals immediately, and out-of-order arrivals wait
/// in a min-heap keyed by position. Floating-point accumulation order — and therefore the
/// summary bytes — are identical no matter what order cells complete in, while memory
/// stays proportional to the reorder window instead of the whole sweep.
#[derive(Debug, Default)]
pub struct SummaryAccumulator {
    index: std::collections::HashMap<(String, String), usize>,
    groups: Vec<((String, String), GroupStats)>,
    /// Next canonical position to apply.
    cursor: usize,
    /// Cells folded so far (assigns sequential positions for plain [`SummaryAccumulator::fold`]).
    submitted: usize,
    /// Out-of-order arrivals, min-heap by canonical position.
    pending: std::collections::BinaryHeap<std::cmp::Reverse<Pending>>,
}

/// The per-cell scalars a summary needs — a fixed few words instead of a [`CellResult`]
/// with its strings.
#[derive(Debug, Clone, Copy)]
struct CellStat {
    rounds: u64,
    overhead_ratio: f64,
    message_ratio: f64,
    uniform_messages: u64,
    nonuniform_messages: u64,
    wall_micros: u64,
    valid: bool,
    solved: bool,
}

impl SummaryAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        SummaryAccumulator::default()
    }

    fn slot(&mut self, problem: &str, family: &str) -> usize {
        let key = (problem.to_string(), family.to_string());
        let groups = &mut self.groups;
        *self.index.entry(key.clone()).or_insert_with(|| {
            groups.push((key, GroupStats::default()));
            groups.len() - 1
        })
    }

    /// Pre-registers a group so its position in the final report is fixed regardless of the
    /// order cells later arrive in (the scheduler registers every cell's group in canonical
    /// order before executing anything).
    pub fn register(&mut self, problem: &str, family: &str) {
        let _ = self.slot(problem, family);
    }

    /// Folds one finished cell into its group, at the next sequential position.
    pub fn fold(&mut self, cell: &CellResult) {
        let position = self.submitted;
        self.fold_at(position, cell);
    }

    /// Folds one finished cell with an explicit canonical position (streaming schedulers
    /// pass the cell's grid index, so out-of-order completion cannot perturb the report).
    pub fn fold_at(&mut self, position: usize, cell: &CellResult) {
        self.fold_columns_at(position, &cell.problem, &cell.family, &CellColumns::from(cell));
    }

    /// Folds one cell from its numeric columns alone — the columnar path: store scans
    /// decode [`CellColumns`] straight off fixed record offsets and feed them here, so a
    /// full-grid report never materializes a [`CellResult`] row.
    pub fn fold_columns_at(
        &mut self,
        position: usize,
        problem: &str,
        family: &str,
        columns: &CellColumns,
    ) {
        let slot = self.slot(problem, family);
        let stat = CellStat {
            rounds: columns.uniform_rounds,
            overhead_ratio: columns.overhead_ratio,
            message_ratio: columns.uniform_messages as f64
                / columns.nonuniform_messages.max(1) as f64,
            uniform_messages: columns.uniform_messages,
            nonuniform_messages: columns.nonuniform_messages,
            wall_micros: columns.wall_micros,
            valid: columns.valid,
            solved: columns.solved,
        };
        self.submitted += 1;
        if position == self.cursor {
            self.groups[slot].1.apply(stat);
            self.cursor += 1;
            while let Some(&std::cmp::Reverse(next)) = self.pending.peek() {
                if next.position != self.cursor {
                    break;
                }
                self.pending.pop();
                self.groups[next.slot].1.apply(next.stat);
                self.cursor += 1;
            }
        } else {
            self.pending.push(std::cmp::Reverse(Pending { position, slot, stat }));
        }
    }

    /// Cells folded so far.
    pub fn folded(&self) -> usize {
        self.submitted
    }

    /// Finishes into the per-group summaries (groups that registered but received no cells
    /// are dropped — they summarize nothing). Any cells still waiting out of order are
    /// applied in position order first, tolerating position gaps.
    pub fn finish(mut self) -> Vec<GroupSummary> {
        while let Some(std::cmp::Reverse(next)) = self.pending.pop() {
            self.groups[next.slot].1.apply(next.stat);
        }
        self.groups
            .into_iter()
            .filter(|(_, stats)| stats.cells > 0)
            .map(|((problem, family), stats)| {
                let count = stats.cells.max(1);
                GroupSummary {
                    problem,
                    family,
                    cells: stats.cells,
                    valid_cells: stats.valid_cells,
                    solved_cells: stats.solved_cells,
                    mean_uniform_rounds: stats.rounds_sum as f64 / count as f64,
                    p50_uniform_rounds: percentile_hist(
                        &stats.rounds_hist,
                        stats.cells as u64,
                        0.50,
                    ),
                    p99_uniform_rounds: percentile_hist(
                        &stats.rounds_hist,
                        stats.cells as u64,
                        0.99,
                    ),
                    max_uniform_rounds: stats.rounds_hist.keys().next_back().copied().unwrap_or(0),
                    mean_overhead_ratio: stats.overhead_sum / count as f64,
                    max_overhead_ratio: stats.overhead_max,
                    total_uniform_messages: stats.uniform_messages,
                    total_nonuniform_messages: stats.nonuniform_messages,
                    mean_message_overhead_ratio: stats.message_ratio_sum / count as f64,
                    total_wall_micros: stats.wall_micros,
                }
            })
            .collect()
    }
}

/// Aggregates phase times into folded stacks (the `frames;joined;by;semicolons count`
/// format consumed by flamegraph tooling such as `flamegraph.pl` and inferno): one stack
/// per `(problem, family, phase)` with the summed microseconds as the count, plus
/// per-family `instance-gen` stacks counted once per distinct instance (instances are
/// shared across the problems that run on them). `other` is the per-cell wall time not
/// attributed to a profiled phase (validation, report assembly, scheduling). Consumes the
/// cells one at a time, so streamed sweeps can feed it straight from the result store.
pub fn folded_stacks<I: IntoIterator<Item = CellResult>>(cells: I) -> String {
    let mut stacks: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut seen_instances: std::collections::BTreeSet<(String, usize, u64)> =
        std::collections::BTreeSet::new();
    for c in cells {
        *stacks.entry(format!("sweep;{};{};attempt", c.problem, c.family)).or_default() +=
            c.attempt_micros;
        *stacks.entry(format!("sweep;{};{};prune", c.problem, c.family)).or_default() +=
            c.prune_micros;
        let other = c.wall_micros.saturating_sub(c.attempt_micros).saturating_sub(c.prune_micros);
        *stacks.entry(format!("sweep;{};{};other", c.problem, c.family)).or_default() += other;
        if seen_instances.insert((c.family.clone(), c.requested_n, c.replicate)) {
            *stacks.entry(format!("sweep;instance-gen;{}", c.family)).or_default() +=
                c.instance_micros;
        }
    }
    let mut out = String::new();
    for (stack, micros) in stacks {
        if micros > 0 {
            out.push_str(&format!("{stack} {micros}\n"));
        }
    }
    out
}

/// Folds cells into per-`(problem, family)` summaries, in first-appearance order (which is
/// the grid's canonical order). Single pass over the cells, so sweeps with hundreds of
/// thousands of cells aggregate in linear time.
pub fn summarize(cells: &[CellResult]) -> Vec<GroupSummary> {
    let mut accumulator = SummaryAccumulator::new();
    for cell in cells {
        accumulator.fold(cell);
    }
    accumulator.finish()
}

/// The full outcome of a sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// The backend's degree of parallelism (worker threads in-process, worker processes
    /// under the process backend).
    pub threads: usize,
    /// The grid's base seed.
    pub base_seed: u64,
    /// Number of executed cells.
    pub cell_count: usize,
    /// Number of distinct graph instances generated (shared across problems).
    pub distinct_instances: usize,
    /// Cells served from the result store instead of being executed.
    pub cache_hits: usize,
    /// End-to-end wall time of the sweep, in microseconds.
    pub total_wall_micros: u64,
    /// Per-group summaries.
    pub summaries: Vec<GroupSummary>,
    /// Every cell, in the grid's canonical order (empty when the sweep ran in streaming
    /// mode — the cells then live in the result store only).
    pub cells: Vec<CellResult>,
}

impl Report {
    /// A copy with every execution-environment field zeroed — wall clocks in cells
    /// ([`CellResult::deterministic_view`]), summaries, and the sweep total, plus the
    /// backend's parallelism — so reports from different backends, machines, or
    /// parallelism levels compare byte-for-byte (the `sweep --deterministic` flag).
    pub fn deterministic_view(&self) -> Report {
        Report {
            threads: 0,
            base_seed: self.base_seed,
            cell_count: self.cell_count,
            distinct_instances: self.distinct_instances,
            cache_hits: self.cache_hits,
            total_wall_micros: 0,
            summaries: self
                .summaries
                .iter()
                .map(|s| GroupSummary { total_wall_micros: 0, ..s.clone() })
                .collect(),
            cells: self.cells.iter().map(CellResult::deterministic_view).collect(),
        }
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Serializes the cells as CSV (one row per cell, with a header).
    pub fn to_csv(&self) -> String {
        self.to_csv_with(false)
    }

    /// Serializes the cells as CSV; with `profile` set, appends the per-phase timing columns
    /// (`attempt_micros`, `prune_micros`, `instance_micros`) emitted by the `--profile` sweep
    /// flag. Text fields are RFC-4180-quoted when they contain separators or quotes.
    pub fn to_csv_with(&self, profile: bool) -> String {
        let mut out = CellResult::csv_header(profile);
        out.push('\n');
        for c in &self.cells {
            out.push_str(&c.csv_row(profile));
            out.push('\n');
        }
        out
    }

    /// Renders the sweep's phase times as folded stacks; see [`folded_stacks`].
    pub fn to_folded(&self) -> String {
        folded_stacks(self.cells.iter().cloned())
    }

    /// Renders the summaries as an aligned text table for terminals.
    pub fn render_summaries(&self) -> String {
        let mut out = format!(
            "{:<18} {:<18} {:>5} {:>6} {:>10} {:>8} {:>8} {:>8} {:>9} {:>9} {:>10}\n",
            "problem",
            "family",
            "cells",
            "valid",
            "mean-rnds",
            "p50",
            "p99",
            "max",
            "ratio",
            "msg-ratio",
            "wall-ms"
        );
        out.push_str(&"-".repeat(122));
        out.push('\n');
        for s in &self.summaries {
            out.push_str(&format!(
                "{:<18} {:<18} {:>5} {:>6} {:>10.1} {:>8} {:>8} {:>8} {:>9.2} {:>9.2} {:>10.1}\n",
                s.problem,
                s.family,
                s.cells,
                s.valid_cells,
                s.mean_uniform_rounds,
                s.p50_uniform_rounds,
                s.p99_uniform_rounds,
                s.max_uniform_rounds,
                s.mean_overhead_ratio,
                s.mean_message_overhead_ratio,
                s.total_wall_micros as f64 / 1000.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(problem: &str, family: &str, rounds: u64, ratio: f64, valid: bool) -> CellResult {
        CellResult {
            problem: problem.into(),
            family: family.into(),
            requested_n: 64,
            n: 64,
            edges: 100,
            replicate: 0,
            seed: 1,
            uniform_rounds: rounds,
            uniform_messages: 10 * rounds,
            nonuniform_rounds: rounds / 2 + 1,
            nonuniform_messages: rounds,
            overhead_ratio: ratio,
            subiterations: 3,
            solved: true,
            valid,
            wall_micros: 1234,
            attempt_micros: 900,
            prune_micros: 200,
            instance_micros: 50,
        }
    }

    #[test]
    fn summaries_group_and_aggregate() {
        let cells = vec![
            cell("mis", "grid", 10, 2.0, true),
            cell("mis", "grid", 30, 4.0, true),
            cell("mis", "path", 20, 3.0, false),
        ];
        let summaries = summarize(&cells);
        assert_eq!(summaries.len(), 2);
        let grid = &summaries[0];
        assert_eq!((grid.problem.as_str(), grid.family.as_str()), ("mis", "grid"));
        assert_eq!(grid.cells, 2);
        assert_eq!(grid.valid_cells, 2);
        assert!((grid.mean_uniform_rounds - 20.0).abs() < 1e-9);
        assert_eq!(grid.p50_uniform_rounds, 10);
        assert_eq!(grid.p99_uniform_rounds, 30);
        assert_eq!(grid.max_uniform_rounds, 30);
        assert!((grid.mean_overhead_ratio - 3.0).abs() < 1e-9);
        assert_eq!(summaries[1].valid_cells, 0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let report = Report {
            threads: 4,
            base_seed: 0,
            cell_count: 1,
            distinct_instances: 1,
            cache_hits: 0,
            total_wall_micros: 99,
            summaries: Vec::new(),
            cells: vec![cell("mis", "grid", 10, 2.0, true)],
        };
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("problem,family,"));
        assert!(lines[1].starts_with("mis,grid,64,64,"));
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let report = Report {
            threads: 2,
            base_seed: 7,
            cell_count: 1,
            distinct_instances: 1,
            cache_hits: 0,
            total_wall_micros: 5,
            summaries: summarize(&[cell("mis", "grid", 10, 2.0, true)]),
            cells: vec![cell("mis", "grid", 10, 2.0, true)],
        };
        let value = serde_json::from_str(&report.to_json()).expect("valid JSON");
        assert_eq!(value.get("threads").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(value.get("cells").and_then(|v| v.as_seq()).map(|s| s.len()), Some(1));
    }

    #[test]
    fn report_deterministic_view_zeroes_every_wall_clock_field() {
        let report = Report {
            threads: 2,
            base_seed: 0,
            cell_count: 1,
            distinct_instances: 1,
            cache_hits: 0,
            total_wall_micros: 99,
            summaries: summarize(&[cell("mis", "grid", 10, 2.0, true)]),
            cells: vec![cell("mis", "grid", 10, 2.0, true)],
        };
        let view = report.deterministic_view();
        assert_eq!(view.threads, 0, "parallelism is an environment fact, not a result");
        assert_eq!(view.total_wall_micros, 0);
        assert!(view.summaries.iter().all(|s| s.total_wall_micros == 0));
        assert!(view.cells.iter().all(|c| c.wall_micros == 0 && c.attempt_micros == 0));
        // Deterministic fields survive untouched.
        assert_eq!(view.cells[0].uniform_rounds, 10);
        assert_eq!(view.summaries[0].cells, 1);
    }

    #[test]
    fn deterministic_view_masks_all_wall_time_fields() {
        let a = cell("mis", "grid", 10, 2.0, true);
        let mut b = a.clone();
        b.wall_micros = 9999;
        b.attempt_micros = 1;
        b.prune_micros = 2;
        b.instance_micros = 3;
        assert_ne!(a, b);
        assert_eq!(a.deterministic_view(), b.deterministic_view());
    }

    #[test]
    fn csv_escapes_commas_quotes_and_newlines() {
        let report = Report {
            threads: 1,
            base_seed: 0,
            cell_count: 1,
            distinct_instances: 1,
            cache_hits: 0,
            total_wall_micros: 1,
            summaries: Vec::new(),
            cells: vec![cell("ruling-set, b=2", "weird \"family\"\nname", 5, 1.0, true)],
        };
        let csv = report.to_csv();
        let body = csv.split_once('\n').unwrap().1;
        assert!(body.starts_with("\"ruling-set, b=2\",\"weird \"\"family\"\"\nname\","));
        // The quoted newline must not introduce a spurious record: exactly header + 1 row
        // worth of unquoted line breaks.
        let records = csv.matches(",true,true,").count();
        assert_eq!(records, 1);
    }

    #[test]
    fn plain_fields_are_not_quoted() {
        assert_eq!(super::csv_escape("mis"), "mis");
        assert_eq!(super::csv_escape("a,b"), "\"a,b\"");
        assert_eq!(super::csv_escape("q\"t"), "\"q\"\"t\"");
    }

    #[test]
    fn histogram_percentiles_match_the_sorted_slice_reference() {
        let samples: Vec<Vec<u64>> = vec![
            vec![],
            vec![7],
            vec![3, 3, 3],
            (1..=100).collect(),
            vec![5, 1, 5, 2, 5, 9, 9, 1],
            (0..1000).map(|i| i % 17).collect(),
        ];
        for sample in samples {
            let mut sorted = sample.clone();
            sorted.sort_unstable();
            let mut hist = std::collections::BTreeMap::new();
            for &v in &sample {
                *hist.entry(v).or_insert(0u64) += 1;
            }
            for q in [0.0, 0.01, 0.25, 0.50, 0.75, 0.99, 1.0] {
                assert_eq!(
                    percentile_hist(&hist, sample.len() as u64, q),
                    percentile(&sorted, q),
                    "q={q} sample={sorted:?}"
                );
            }
        }
    }

    #[test]
    fn out_of_order_folds_match_in_order_folds_bytewise() {
        // Ratios chosen so f64 accumulation order matters if the cursor discipline breaks.
        let cells: Vec<CellResult> = (0..40)
            .map(|i| {
                cell(
                    "mis",
                    if i % 3 == 0 { "grid" } else { "path" },
                    (i * 13) % 29 + 1,
                    0.1 + (i as f64) * 0.317,
                    i % 5 != 0,
                )
            })
            .collect();
        let mut in_order = SummaryAccumulator::new();
        for c in &cells {
            in_order.register(&c.problem, &c.family);
        }
        for (i, c) in cells.iter().enumerate() {
            in_order.fold_at(i, c);
        }
        let mut scrambled = SummaryAccumulator::new();
        for c in &cells {
            scrambled.register(&c.problem, &c.family);
        }
        // A deterministic permutation with plenty of reordering (stride coprime to 40).
        for k in 0..cells.len() {
            let i = (k * 23) % cells.len();
            scrambled.fold_at(i, &cells[i]);
        }
        assert_eq!(scrambled.folded(), cells.len());
        let a = in_order.finish();
        let b = scrambled.finish();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string_pretty(&a).unwrap(),
            serde_json::to_string_pretty(&b).unwrap()
        );
    }

    #[test]
    fn columnar_folds_match_row_folds_bytewise() {
        let cells: Vec<CellResult> = (0..24)
            .map(|i| cell("mis", "grid", (i * 7) % 13 + 1, 0.3 + i as f64 * 0.211, i % 4 != 0))
            .collect();
        let mut rows = SummaryAccumulator::new();
        let mut columns = SummaryAccumulator::new();
        for (i, c) in cells.iter().enumerate() {
            rows.fold_at(i, c);
            columns.fold_columns_at(i, &c.problem, &c.family, &CellColumns::from(c));
        }
        let a = rows.finish();
        let b = columns.finish();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string_pretty(&a).unwrap(),
            serde_json::to_string_pretty(&b).unwrap()
        );
    }

    #[test]
    fn finish_tolerates_position_gaps() {
        // Streaming over a partial grid (some positions never folded) must still finish.
        let mut accumulator = SummaryAccumulator::new();
        accumulator.fold_at(3, &cell("mis", "grid", 10, 2.0, true));
        accumulator.fold_at(1, &cell("mis", "grid", 30, 4.0, true));
        let summaries = accumulator.finish();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].cells, 2);
        assert_eq!(summaries[0].max_uniform_rounds, 30);
    }

    #[test]
    fn profiled_csv_appends_phase_columns() {
        let report = Report {
            threads: 1,
            base_seed: 0,
            cell_count: 1,
            distinct_instances: 1,
            cache_hits: 0,
            total_wall_micros: 1,
            summaries: Vec::new(),
            cells: vec![cell("mis", "grid", 10, 2.0, true)],
        };
        let plain = report.to_csv();
        assert!(!plain.lines().next().unwrap().contains("attempt_micros"));
        let profiled = report.to_csv_with(true);
        let lines: Vec<&str> = profiled.lines().collect();
        assert!(lines[0].ends_with("attempt_micros,prune_micros,instance_micros"));
        assert!(lines[1].ends_with(",900,200,50"));
    }
}
