//! Both ends of the result stream: the verified reader and the batching writer.
//!
//! Every stripe a [`super::NetworkBackend`] ships — to remote daemons, to the local ones
//! [`super::ProcessBackend`] launches, or through a coordinator — comes back as the same
//! newline-delimited protocol: `{"index", "cell"}` result lines, optional `{"telemetry"}`
//! heartbeats and one `{"spans"}` dump, terminated by a `{"done"}` sentinel.
//!
//! [`StripeStream`] is the verification state machine for one stripe of that stream:
//! per-line identity checks, duplicate-index rejection, sentinel completeness.
//!
//! [`LineSink`] is the one writer of the format, used by daemons, by the coordinator's
//! client streams and for request lines. It batches: result lines collect in one reused
//! buffer that is written in a single call once it passes [`BATCH_BYTES`], or once a line
//! is queued after the oldest buffered one has waited [`MAX_LINE_WAIT`]. Serving streams
//! also tick [`LineSink::flush_stale`] every [`FLUSH_TICK`], so no finished line waits much
//! longer than the bound for a next one. Heartbeats, the span dump, the sentinel and error
//! lines go out at once, together with everything queued before them. The bytes on the
//! wire are the same as with one write per line; only the number of writes changes.

use super::telemetry::{SpanDump, WorkerTelemetry};
use super::CellShard;
use crate::progress::ProgressMeter;
use crate::report::CellResult;
use serde::{Deserialize, Serialize, Value, Writer};
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// One result line, `{"index": …, "cell": {…}}`, written straight to text.
pub(crate) struct ResultLine<'a> {
    /// The cell's position in its stripe.
    pub index: usize,
    /// The cell's result.
    pub cell: &'a CellResult,
}

impl Serialize for ResultLine<'_> {
    fn serialize(&self, out: &mut Writer<'_>) {
        out.begin_map();
        out.field("index", &self.index);
        out.field("cell", self.cell);
        out.end_map();
    }
}

/// A line of one entry, `{key: value}`: a heartbeat, span dump, sentinel or error line.
pub(crate) struct Keyed<'a>(pub &'static str, pub &'a dyn Serialize);

impl Serialize for Keyed<'_> {
    fn serialize(&self, out: &mut Writer<'_>) {
        out.begin_map();
        out.field(self.0, self.1);
        out.end_map();
    }
}

/// A [`LineSink`] writes its batch once it holds this many bytes.
const BATCH_BYTES: usize = 64 << 10;

/// A [`LineSink`] writes its batch when a line is queued after the oldest buffered line
/// has waited this long, or at the first [`FLUSH_TICK`] after that.
const MAX_LINE_WAIT: Duration = Duration::from_millis(20);

/// How often a serving stream checks its sink for lines older than [`MAX_LINE_WAIT`].
pub(crate) const FLUSH_TICK: Duration = Duration::from_millis(5);

/// The batching writer of the result-stream format (see the [module docs](self)).
///
/// After a failed write the sink is broken: it drops what it holds and fails every later
/// call, so a stream with a hole in it never reaches its sentinel.
pub(crate) struct LineSink<W: Write> {
    out: W,
    batch: String,
    /// When the oldest line of `batch` was queued.
    oldest: Option<Instant>,
    broken: bool,
}

impl<W: Write> LineSink<W> {
    /// An empty sink over `out`.
    pub fn new(out: W) -> Self {
        LineSink { out, batch: String::new(), oldest: None, broken: false }
    }

    /// Queues `value` as one line, written straight into the batch. Writes the batch when
    /// it passes [`BATCH_BYTES`] or its oldest line has waited past [`MAX_LINE_WAIT`].
    pub fn line(&mut self, value: &dyn Serialize) -> io::Result<()> {
        self.queue_batched(|batch| value.serialize(&mut Writer::json(batch)))
    }

    /// Queues one line of raw text; [`LineSink::line`] for text that is not a JSON value.
    pub fn raw(&mut self, text: &str) -> io::Result<()> {
        self.queue_batched(|batch| batch.push_str(text))
    }

    /// Queues `value` as one line and writes the batch now: for lines the reader must see
    /// without delay — heartbeats, the span dump, the sentinel, error lines, requests.
    pub fn line_now(&mut self, value: &dyn Serialize) -> io::Result<()> {
        self.queue(|batch| value.serialize(&mut Writer::json(batch)))?;
        self.flush()
    }

    fn queue_batched(&mut self, write: impl FnOnce(&mut String)) -> io::Result<()> {
        let now = Instant::now();
        let oldest = *self.oldest.get_or_insert(now);
        self.queue(write)?;
        if self.batch.len() >= BATCH_BYTES || now.duration_since(oldest) > MAX_LINE_WAIT {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes the batch if its oldest line has waited past [`MAX_LINE_WAIT`]: what a
    /// serving stream does every [`FLUSH_TICK`].
    pub fn flush_stale(&mut self) -> io::Result<()> {
        match self.oldest {
            Some(oldest) if oldest.elapsed() > MAX_LINE_WAIT => self.flush(),
            _ => Ok(()),
        }
    }

    /// Writes whatever is queued, in one call.
    pub fn flush(&mut self) -> io::Result<()> {
        self.check()?;
        if self.batch.is_empty() {
            return Ok(());
        }
        self.oldest = None;
        let written = self.out.write_all(self.batch.as_bytes()).and_then(|_| self.out.flush());
        self.batch.clear();
        self.broken = written.is_err();
        written
    }

    /// The writer underneath.
    #[cfg(test)]
    pub fn get_ref(&self) -> &W {
        &self.out
    }

    fn queue(&mut self, write: impl FnOnce(&mut String)) -> io::Result<()> {
        self.check()?;
        write(&mut self.batch);
        self.batch.push('\n');
        Ok(())
    }

    fn check(&self) -> io::Result<()> {
        if self.broken {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "an earlier write failed"));
        }
        Ok(())
    }
}

/// Writes `value` as one line in one call: a request, an error line, a keep-alive.
pub(crate) fn write_line(out: impl Write, value: &dyn Serialize) -> io::Result<()> {
    LineSink::new(out).line_now(value)
}

/// What one consumed line meant for the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineOutcome {
    /// A result, heartbeat, or span dump: keep reading.
    Progress,
    /// The sentinel: the stream is over, check completion next.
    Finished,
}

/// Verification state for one stripe's stream: which cells were verified and emitted, and
/// the sentinel once it arrives.
pub(crate) struct StripeStream<'a> {
    stripe: &'a CellShard,
    worker_label: String,
    spawn_offset_micros: u64,
    emitted: Vec<bool>,
    /// How many entries of `emitted` are set.
    done: u64,
    sentinel: Option<Value>,
    import_spans: bool,
}

impl<'a> StripeStream<'a> {
    /// A fresh verifier for `stripe`. `spawn_offset_micros` is the coordinator-side time
    /// the worker started (spawn or connect), used to rebase an imported span dump.
    pub fn new(stripe: &'a CellShard, worker_label: String, spawn_offset_micros: u64) -> Self {
        StripeStream {
            emitted: vec![false; stripe.cells.len()],
            done: 0,
            stripe,
            worker_label,
            spawn_offset_micros,
            sentinel: None,
            import_spans: true,
        }
    }

    /// Skips span dumps unparsed instead of importing them: for a reader that never takes
    /// a trace (the coordinator's fleet), to which a dump is megabytes of events it would
    /// parse and hold for nothing. A dump carries no results, so no check is lost.
    pub fn discard_spans(mut self) -> Self {
        self.import_spans = false;
        self
    }

    /// Consumes one line of the stream. Verified results are handed to `accept` with their
    /// stripe index; heartbeats update `progress`; a span dump is imported into the obs
    /// layer. Any line that cannot be fully trusted is an error — the caller must stop
    /// trusting the stream on the spot.
    pub fn consume(
        &mut self,
        line: &str,
        progress: Option<&ProgressMeter>,
        accept: &mut dyn FnMut(usize, CellResult),
    ) -> Result<LineOutcome, String> {
        if !self.import_spans && line.starts_with("{\"spans\":") {
            return Ok(LineOutcome::Progress);
        }
        let value = serde_json::from_str(line).map_err(|e| format!("garbage on stream: {e}"))?;
        if value.get("done").is_some() {
            self.sentinel = Some(value);
            return Ok(LineOutcome::Finished);
        }
        // A daemon that cannot serve a request says so explicitly before hanging up.
        if let Some(message) = value.get("error") {
            return Err(match message {
                Value::Str(text) => format!("worker reported: {text}"),
                other => format!("worker reported an error: {other:?}"),
            });
        }
        // Telemetry record kinds (only present when the parent asked for them). A record
        // that *claims* a kind but does not parse is treated like any other garbage.
        if let Some(t) = value.get("telemetry") {
            let heartbeat =
                WorkerTelemetry::from_value(t).map_err(|e| format!("bad telemetry record: {e}"))?;
            if let Some(meter) = progress {
                meter.worker_progress(&self.worker_label, heartbeat.cells_done);
            }
            return Ok(LineOutcome::Progress);
        }
        if let Some(s) = value.get("spans") {
            let dump = SpanDump::from_value(s).map_err(|e| format!("bad span dump: {e}"))?;
            dump.import(&self.worker_label, self.spawn_offset_micros);
            return Ok(LineOutcome::Progress);
        }
        let (index, result) = accept_result(self.stripe, &value, &self.emitted)?;
        self.emitted[index] = true;
        self.done += 1;
        accept(index, result);
        if let Some(meter) = progress {
            meter.worker_progress(&self.worker_label, self.done_count());
        }
        Ok(LineOutcome::Progress)
    }

    /// How many cells of the stripe were verified and emitted so far.
    pub fn done_count(&self) -> u64 {
        self.done
    }

    /// The stripe indices still without a verified result.
    pub fn missing(&self) -> Vec<usize> {
        (0..self.stripe.cells.len()).filter(|&i| !self.emitted[i]).collect()
    }

    /// Judges completion after the stream ended. What the sentinel *claims* is irrelevant;
    /// completeness is judged by what was actually verified and emitted, so an
    /// under-emitting worker with a confident sentinel still triggers the re-run of its
    /// missing cells.
    pub fn verify_completion(&self) -> Result<(), String> {
        match &self.sentinel {
            Some(_) if self.done < self.emitted.len() as u64 => {
                Err("sentinel arrived before every cell was emitted".into())
            }
            Some(value)
                if value.get("done").and_then(Value::as_u64)
                    != Some(self.stripe.cells.len() as u64) =>
            {
                Err("sentinel count disagrees with the stripe".into())
            }
            Some(_) => Ok(()),
            None => Err("stream ended without a sentinel".into()),
        }
    }
}

/// Validates one worker result line against the stripe: the claimed index must be fresh and
/// in range, and the result must describe exactly the cell at that index — including the
/// derived execution seed, so a worker computing with a different base seed (or a corrupted
/// line that still parses) can never smuggle a wrong result into the report.
pub(crate) fn accept_result(
    stripe: &CellShard,
    value: &Value,
    emitted: &[bool],
) -> Result<(usize, CellResult), String> {
    let index = value
        .get("index")
        .and_then(Value::as_u64)
        .ok_or_else(|| "result line without an index".to_string())?;
    let index = usize::try_from(index).map_err(|_| format!("index {index} overflows"))?;
    if index >= stripe.cells.len() {
        return Err(format!("index {index} out of range for a {}-cell stripe", stripe.cells.len()));
    }
    if emitted[index] {
        return Err(format!("index {index} emitted twice"));
    }
    let result = value
        .get("cell")
        .ok_or_else(|| "result line without a cell".to_string())
        .and_then(CellResult::from_value)?;
    let expected = &stripe.cells[index];
    if result.problem != expected.problem.name()
        || result.family != expected.family.name()
        || result.requested_n != expected.n
        || result.replicate != expected.replicate
        || result.seed != expected.cell_seed(stripe.base_seed)
    {
        return Err(format!(
            "result at index {index} does not match cell {} (claimed {}/{}/n{}/r{} seed {})",
            expected.label(),
            result.problem,
            result.family,
            result.requested_n,
            result.replicate,
            result.seed
        ));
    }
    Ok((index, result))
}

#[cfg(test)]
mod tests {
    use super::super::faults::FaultInjector;
    use super::super::network::serve_shard;
    use super::*;
    use crate::registry::workload;
    use crate::scenario::Scenario;
    use local_graphs::Family;
    use proptest::prelude::*;
    use std::time::Duration;

    /// A four-cell stripe and the stream a daemon serves for it: four result lines, then the
    /// sentinel.
    fn served() -> (CellShard, Vec<String>) {
        let cells = (0..4)
            .map(|replicate| Scenario {
                problem: workload("luby-mis"),
                family: Family::SparseGnp.into(),
                n: 32,
                replicate,
            })
            .collect();
        let stripe = CellShard::new(3, cells);
        let mut out = Vec::new();
        serve_shard(&stripe, 1, None, &FaultInjector::default(), &mut out).unwrap();
        let lines: Vec<String> =
            String::from_utf8(out).unwrap().lines().map(String::from).collect();
        assert_eq!(lines.len(), 5, "four results + sentinel");
        (stripe, lines)
    }

    fn index_of(line: &str) -> usize {
        serde_json::from_str(line).unwrap().get("index").and_then(Value::as_u64).unwrap() as usize
    }

    /// Feeds `lines` to a fresh verifier; returns it with the indices it accepted.
    fn feed<'a>(stripe: &'a CellShard, lines: &[String]) -> (StripeStream<'a>, Vec<usize>) {
        let mut stream = StripeStream::new(stripe, "worker 0".into(), 0);
        let mut accepted = Vec::new();
        for line in lines {
            stream.consume(line, None, &mut |index, _| accepted.push(index)).unwrap();
        }
        (stream, accepted)
    }

    #[test]
    fn a_stream_cut_after_two_results_is_missing_exactly_the_tail() {
        let (stripe, lines) = served();
        let (stream, accepted) = feed(&stripe, &lines[..2]);
        assert_eq!(accepted, [index_of(&lines[0]), index_of(&lines[1])]);
        let err = stream.verify_completion().unwrap_err();
        assert!(err.contains("without a sentinel"), "{err}");
        let mut tail: Vec<usize> = lines[2..4].iter().map(|l| index_of(l)).collect();
        tail.sort_unstable();
        assert_eq!(stream.missing(), tail);
    }

    #[test]
    fn a_dropped_line_under_a_confident_sentinel_is_missing_exactly_that_cell() {
        let (stripe, lines) = served();
        let mut kept = lines.clone();
        let dropped = kept.remove(1);
        let (stream, accepted) = feed(&stripe, &kept);
        assert_eq!(accepted.len(), 3);
        // The sentinel still claims all four cells; completeness is judged by what was
        // verified, so the dropped cell is missing rather than silently lost.
        let sentinel = serde_json::from_str(kept.last().unwrap()).unwrap();
        assert_eq!(sentinel.get("done").and_then(Value::as_u64), Some(4));
        let err = stream.verify_completion().unwrap_err();
        assert!(err.contains("before every cell was emitted"), "{err}");
        assert_eq!(stream.missing(), [index_of(&dropped)]);
    }

    #[test]
    fn done_count_counts_only_the_accepted_lines() {
        let (stripe, lines) = served();
        let mut out_of_range = serde_json::from_str(&lines[0]).unwrap();
        if let Value::Map(entries) = &mut out_of_range {
            entries[0].1 = Value::U64(4);
        }
        let out_of_range = serde_json::to_string(&out_of_range).unwrap();
        let garbage = FaultInjector::garbage_line(0);
        let mut stream = StripeStream::new(&stripe, "worker 0".into(), 0);
        let mut accepted = 0;
        for line in [&lines[0], &lines[0], &garbage, &out_of_range, &lines[1], &lines[1]] {
            if stream.consume(line, None, &mut |_, _| accepted += 1).is_err() {
                continue;
            }
            assert_eq!(stream.done_count(), accepted);
        }
        assert_eq!((accepted, stream.done_count()), (2, 2));
        for line in &lines[2..] {
            stream.consume(line, None, &mut |_, _| accepted += 1).unwrap();
        }
        assert_eq!(stream.done_count(), 4);
        stream.verify_completion().unwrap();
    }

    /// A replacement value for a mutated node: edge-case numbers, strings and shapes.
    fn odd_value(seed: u64) -> Value {
        match seed % 12 {
            0 => Value::Null,
            1 => Value::Bool(seed & 0x10 != 0),
            2 => Value::U64(0),
            3 => Value::U64(u64::MAX >> ((seed >> 8) % 64)),
            4 => Value::I64(-1 - (seed >> 8) as i64 % 1000),
            5 => Value::F64(f64::from_bits(seed >> 4)),
            6 => Value::Str(String::new()),
            7 => Value::Str(
                ["mis", "grid", "gnp-d0", "regular-99999999999", "x"][(seed >> 8) as usize % 5]
                    .into(),
            ),
            8 => Value::Seq(Vec::new()),
            9 => Value::Map(Vec::new()),
            10 => Value::Seq(vec![Value::U64(seed >> 8); (seed >> 4) as usize % 4]),
            _ => Value::F64(-0.5),
        }
    }

    /// Mutates one node below `value`, reached by a walk steered by `seed`: replaces it
    /// with an odd value, drops or duplicates a map entry, or truncates a sequence.
    fn mutate_value(value: &mut Value, seed: u64) {
        let (choice, next) = (seed % 8, seed / 8);
        match value {
            Value::Map(entries) if !entries.is_empty() => {
                let at = next as usize % entries.len();
                match choice {
                    0 => drop(entries.remove(at)),
                    1 => entries.push(entries[at].clone()),
                    7 => entries[at].1 = odd_value(next / 8),
                    _ => mutate_value(&mut entries[at].1, next / 8),
                }
            }
            Value::Seq(items) if !items.is_empty() => {
                let at = next as usize % items.len();
                match choice {
                    0 => items.truncate(at),
                    7 => items[at] = odd_value(next / 8),
                    _ => mutate_value(&mut items[at], next / 8),
                }
            }
            _ => *value = odd_value(seed),
        }
    }

    /// Applies `ops` to a valid line: tree mutations, then — for odd `flip` — one byte
    /// overwritten with a JSON-significant character.
    fn mutate(line: &str, ops: &[u64], flip: u64) -> String {
        let mut value = serde_json::from_str(line).expect("fixture lines are valid JSON");
        for &op in ops {
            mutate_value(&mut value, op);
        }
        let mut text = serde_json::to_string(&value).expect("values serialize").into_bytes();
        if flip % 2 == 1 && !text.is_empty() {
            let at = (flip >> 1) as usize % text.len();
            text[at] = b"{}[]\":,-.0e9 "[(flip >> 33) as usize % 13];
        }
        String::from_utf8_lossy(&text).into_owned()
    }

    /// Every line a client or coordinator decodes from the wire, valid: a stream's result
    /// lines, heartbeat, span dump and sentinel, a shard and a grid.
    fn valid_lines() -> (CellShard, Vec<String>) {
        let (stripe, mut lines) = served();
        let beat =
            WorkerTelemetry { cells_done: 2, wall_micros: 7, counters: vec![("x".into(), 1)] };
        lines.push(serde_json::to_string(&Keyed("telemetry", &beat)).unwrap());
        let dump = SpanDump::from_snapshot(&local_obs::snapshot());
        lines.push(serde_json::to_string(&Keyed("spans", &dump)).unwrap());
        lines.push(serde_json::to_string(&stripe).unwrap());
        let grid = crate::scenario::ScenarioGrid::new().sizes([16usize, 24]).replicates(3);
        lines.push(serde_json::to_string(&grid).unwrap());
        (stripe, lines)
    }

    /// Decodes `text` the ways the servers and the client do; the test is that none of
    /// them panics.
    fn decode_everywhere(stripe: &CellShard, prefix: &[String], text: &str) {
        if let Ok(value) = serde_json::from_str(text) {
            let _ = CellShard::from_value(&value);
            if let Ok(grid) = crate::scenario::ScenarioGrid::from_value(&value) {
                assert!(grid.cell_count() <= crate::scenario::MAX_WIRE_GRID_CELLS);
            }
        }
        let mut stream = StripeStream::new(stripe, "worker 0".into(), 0);
        for line in prefix {
            if stream.consume(line, None, &mut |_, _| {}).is_err() {
                break;
            }
        }
        let _ = stream.consume(text, None, &mut |_, _| {});
        let _ = stream.verify_completion();
        let _ = stream.missing();
    }

    /// Counts `write` calls; fails every one once `fail` is set.
    #[derive(Default)]
    struct Calls {
        bytes: Vec<u8>,
        writes: usize,
        fail: bool,
    }

    impl std::io::Write for Calls {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.fail {
                return Err(std::io::ErrorKind::ConnectionReset.into());
            }
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_sink_writes_a_batch_at_its_size_bound_its_age_bound_and_on_demand() {
        let line = Value::Str("x".repeat(1000));
        let mut sink = LineSink::new(Calls::default());
        while sink.get_ref().writes == 0 {
            sink.line(&line).unwrap();
        }
        assert_eq!(sink.get_ref().bytes.len(), BATCH_BYTES.next_multiple_of(1003));

        let mut sink = LineSink::new(Calls::default());
        sink.line(&line).unwrap();
        sink.flush_stale().unwrap();
        assert_eq!(sink.get_ref().writes, 0, "a fresh line waits for company");
        std::thread::sleep(MAX_LINE_WAIT + Duration::from_millis(5));
        sink.flush_stale().unwrap();
        assert_eq!(sink.get_ref().writes, 1, "a stale line goes out at the next tick");
        sink.line(&line).unwrap();
        std::thread::sleep(MAX_LINE_WAIT + Duration::from_millis(5));
        sink.line(&line).unwrap();
        assert_eq!(sink.get_ref().writes, 2, "and with the next line after it");
        sink.line(&line).unwrap();
        sink.line_now(&Value::U64(7)).unwrap();
        assert_eq!(sink.get_ref().writes, 3, "lines sent at once take the batch along");
        assert!(sink.get_ref().bytes.ends_with(b"\"\n7\n"));
    }

    #[test]
    fn a_sink_that_failed_once_writes_nothing_more() {
        let mut sink = LineSink::new(Calls { fail: true, ..Calls::default() });
        assert!(sink.line_now(&Value::U64(1)).is_err());
        sink.out.fail = false;
        assert!(sink.line(&Value::U64(2)).is_err());
        assert!(sink.line_now(&Value::U64(3)).is_err());
        assert_eq!(sink.get_ref().writes, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn arbitrary_bytes_never_panic_a_decoder(
            bytes in prop::collection::vec(any::<u8>(), 0..160),
        ) {
            let (stripe, lines) = valid_lines();
            decode_everywhere(&stripe, &lines[..2], &String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn mutated_valid_lines_never_panic_a_decoder(
            pick in any::<u64>(),
            prefix in 0usize..4,
            ops in prop::collection::vec(any::<u64>(), 1..4),
            flip in any::<u64>(),
        ) {
            let (stripe, lines) = valid_lines();
            let line = &lines[pick as usize % lines.len()];
            decode_everywhere(&stripe, &lines[..prefix], &mutate(line, &ops, flip));
        }
    }
}
