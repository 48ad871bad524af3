//! The streaming scan session: a reader thread feeding a resumable
//! matcher — the [`StreamMachine`], or the host engine's — through a
//! *bounded* chunk queue.
//!
//! The queue is a [`std::sync::mpsc::sync_channel`] of depth
//! `QUEUE_DEPTH` (4), so a slow pattern exerts backpressure on the
//! reader instead of letting chunks pile up in memory: total resident
//! input is `O(chunk_size × QUEUE_DEPTH + window)` no matter how
//! large the input or how pathological the pattern. Budgets from
//! [`Budget`] apply per session — fuel bounds simulated cycles, the
//! deadline bounds wall-clock time — and both conclude the session with a
//! clean [`MatchOutcome::Budget`] instead of a hang.

use std::io::{self, Read};
use std::time::{Duration, Instant};

use cicero_core::Backend;
use cicero_hostexec::HostMatcher;
use cicero_isa::Program;
use cicero_sim::{ArchConfig, ExecReport, StreamMachine, StreamStatus};

use crate::budget::{Budget, BudgetKind, MatchOutcome};
use crate::{host_exec_report, HostOutcome, HostRun, Runtime};

/// Chunks the reader may buffer ahead of the matcher: the backpressure
/// bound.
const QUEUE_DEPTH: usize = 4;

/// Knobs for one streaming session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOptions {
    /// Bytes per chunk read from the source (must be ≥ 1).
    pub chunk_size: usize,
    /// Resource budget for the session.
    pub budget: Budget,
}

impl Default for StreamOptions {
    fn default() -> StreamOptions {
        StreamOptions { chunk_size: 64 * 1024, budget: Budget::UNLIMITED }
    }
}

/// Why a streaming session could not run.
#[derive(Debug)]
pub enum StreamError {
    /// The input source failed mid-stream.
    Io(io::Error),
    /// Rejected options (zero chunk size).
    Options(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "reading input: {e}"),
            StreamError::Options(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// The result of one streaming session.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// The verdict (or budget cut-off) with its [`ExecReport`].
    ///
    /// [`ExecReport`]: cicero_sim::ExecReport
    pub outcome: MatchOutcome,
    /// Input bytes fed to the matcher (on early acceptance, less than the
    /// source length).
    pub bytes: u64,
    /// Chunks fed to the matcher.
    pub chunks: u64,
    /// Times the machine suspended at a chunk boundary.
    pub suspends: u64,
    /// Memory high-water mark of the sliding input buffer, in bytes.
    pub peak_buffered: usize,
    /// Wall-clock duration of the session.
    pub wall: Duration,
}

/// Read until `buf` is full or the source is exhausted.
fn read_chunk<R: Read>(reader: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

const NO_MATCH: HostOutcome =
    HostOutcome { accepted: false, match_position: None, matched_id: None };

/// The resumable engine behind one session. Both variants give a
/// chunk-split-invariant verdict; they differ in what fuel bounds.
// One session lives on `scan_stream`'s stack and is never stored or
// moved, so the variants' size gap costs nothing worth a box.
#[allow(clippy::large_enum_variant)]
enum Session<'a> {
    /// The cycle-level simulator; fuel is already clamped into its
    /// config's `max_cycles`.
    Sim(StreamMachine<'a>),
    /// The host engine, whose matcher state is one state mask (one to a
    /// few machine words). Fuel is a byte budget here (`cycles` = bytes
    /// examined in the host report convention), so the session stops
    /// feeding at `byte_cap`.
    Host { matcher: HostMatcher<'a>, byte_cap: u64, limit_hit: bool, peak_chunk: usize },
}

impl Session<'_> {
    /// Feed one chunk: the bytes consumed, and whether the session is over
    /// (verdict reached, or the byte budget ran out).
    fn feed(&mut self, chunk: &[u8]) -> (usize, bool) {
        match self {
            Session::Sim(stream) => (chunk.len(), stream.feed(chunk) == StreamStatus::Complete),
            Session::Host { matcher, byte_cap, limit_hit, peak_chunk } => {
                *peak_chunk = (*peak_chunk).max(chunk.len());
                let remaining = byte_cap.saturating_sub(matcher.position() as u64);
                let take = (chunk.len() as u64).min(remaining) as usize;
                let concluded = matcher.feed(&chunk[..take]).is_some();
                *limit_hit = !concluded && take < chunk.len();
                (take, concluded || *limit_hit)
            }
        }
    }

    /// End of input (or an early conclusion): the final report.
    fn finish(&mut self) -> ExecReport {
        match self {
            Session::Sim(stream) => stream.finish(),
            Session::Host { matcher, limit_hit, .. } => host_exec_report(&HostRun {
                outcome: if *limit_hit { NO_MATCH } else { matcher.finish() },
                scanned: matcher.position() as u64,
                hit_byte_limit: *limit_hit,
            }),
        }
    }

    /// Deadline expiry: the progress made so far, with no verdict.
    fn abandon(&mut self) -> ExecReport {
        match self {
            Session::Sim(stream) => stream.abandon(),
            Session::Host { matcher, .. } => host_exec_report(&HostRun {
                outcome: NO_MATCH,
                scanned: matcher.position() as u64,
                hit_byte_limit: false,
            }),
        }
    }

    /// Memory high-water mark of the session's input buffering.
    fn peak_buffered(&self) -> usize {
        match self {
            Session::Sim(stream) => stream.peak_resident(),
            Session::Host { peak_chunk, .. } => *peak_chunk,
        }
    }
}

impl Runtime {
    /// Scan `reader` with an already-compiled program, chunk by chunk, in
    /// bounded memory, on this handle's backend. The verdict is
    /// byte-identical to running the whole input at once (chunk-split
    /// invariance), except that a budget may conclude the session early
    /// with [`MatchOutcome::Budget`]. On [`Backend::Host`] the fuel budget
    /// is a byte budget and the reported [`ExecReport`] follows the host
    /// synthesis convention (`cycles` = bytes examined). Under
    /// [`Runtime::with_trace`] the session runs in a `stream.execute`
    /// span annotated with byte, chunk, and suspend totals.
    ///
    /// # Errors
    ///
    /// [`StreamError::Options`] for a zero chunk size;
    /// [`StreamError::Io`] when the source fails mid-stream.
    pub fn scan_stream<R: Read + Send>(
        &self,
        program: &Program,
        mut reader: R,
        config: &ArchConfig,
        options: &StreamOptions,
    ) -> Result<StreamReport, StreamError> {
        if options.chunk_size == 0 {
            return Err(StreamError::Options("chunk size must be at least 1 byte".to_owned()));
        }
        let trace_span = self.trace_child("stream.execute").inspect(|span| {
            span.annotate("chunk_size", options.chunk_size);
            span.annotate("queue_depth", QUEUE_DEPTH);
            span.annotate("backend", self.backend.to_string());
        });
        let start = Instant::now();
        let deadline_at = options.budget.deadline.map(|d| start + d);
        let run_config = options.budget.clamp_config(config);
        let host = (self.backend == Backend::Host).then(|| self.host_program(program));
        let mut session = match &host {
            Some(host) => Session::Host {
                matcher: host.matcher(),
                byte_cap: run_config.max_cycles,
                limit_hit: false,
                peak_chunk: 0,
            },
            None => Session::Sim(StreamMachine::new(program, run_config)),
        };

        let chunk_size = options.chunk_size;
        let (mut bytes, mut chunks, mut suspends) = (0u64, 0u64, 0u64);
        let mut io_error: Option<io::Error> = None;
        let mut deadline_hit = false;
        let (tx, rx) = std::sync::mpsc::sync_channel::<io::Result<Vec<u8>>>(QUEUE_DEPTH);
        std::thread::scope(|scope| {
            scope.spawn(move || loop {
                let mut buf = vec![0u8; chunk_size];
                match read_chunk(&mut reader, &mut buf) {
                    Ok(0) => break,
                    Ok(n) => {
                        buf.truncate(n);
                        // A send error means the matcher concluded early
                        // and dropped the queue.
                        if tx.send(Ok(buf)).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        break;
                    }
                }
            });
            while let Ok(message) = rx.recv() {
                match message {
                    Ok(chunk) => {
                        if deadline_at.is_some_and(|at| Instant::now() >= at) {
                            deadline_hit = true;
                            break;
                        }
                        chunks += 1;
                        let (consumed, over) = session.feed(&chunk);
                        bytes += consumed as u64;
                        if over {
                            break;
                        }
                        suspends += 1;
                    }
                    Err(e) => {
                        io_error = Some(e);
                        break;
                    }
                }
            }
            // Dropping the receiver unblocks a reader stuck on a full
            // queue, so the scope can join.
            drop(rx);
        });
        if let Some(e) = io_error {
            return Err(StreamError::Io(e));
        }

        let outcome = if deadline_hit {
            MatchOutcome::Budget { kind: BudgetKind::Deadline, partial: Some(session.abandon()) }
        } else {
            options.budget.classify(session.finish(), config)
        };
        let report = StreamReport {
            outcome,
            bytes,
            chunks,
            suspends,
            peak_buffered: session.peak_buffered(),
            wall: start.elapsed(),
        };
        if let Some(telemetry) = &self.telemetry {
            telemetry.counter_add("stream.sessions", 1);
            telemetry.counter_add("stream.chunks", report.chunks);
            telemetry.counter_add("stream.bytes", report.bytes);
            telemetry.counter_add("stream.suspends", report.suspends);
            telemetry.observe("stream.peak_buffered", report.peak_buffered as f64);
            if matches!(report.outcome, MatchOutcome::Budget { .. }) {
                telemetry.counter_add("stream.budget_exceeded", 1);
            }
            // The concluded run folds into the sim.* series like batch
            // runs do.
            if let Some(exec) = report.outcome.report() {
                exec.record_into(telemetry);
            }
        }
        if let Some(span) = trace_span {
            span.annotate("bytes", report.bytes);
            span.annotate("chunks", report.chunks);
            span.annotate("suspends", report.suspends);
            span.annotate("complete", report.outcome.is_complete());
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use cicero_sim::simulate;
    use cicero_telemetry::Telemetry;

    use super::*;
    use crate::RuntimeOptions;

    fn runtime() -> Runtime {
        Runtime::new(RuntimeOptions { jobs: 1, ..RuntimeOptions::default() })
    }

    fn options(chunk_size: usize) -> StreamOptions {
        StreamOptions { chunk_size, ..StreamOptions::default() }
    }

    /// Compile `pattern` through the cache, then stream `reader`.
    fn stream_pattern<R: Read + Send>(
        runtime: &Runtime,
        pattern: &str,
        reader: R,
        config: &ArchConfig,
        options: &StreamOptions,
    ) -> Result<StreamReport, StreamError> {
        let program = runtime.compile(pattern).unwrap();
        runtime.scan_stream(&program, reader, config, options)
    }

    #[test]
    fn streamed_scan_equals_whole_input_simulation() {
        let runtime = runtime();
        let config = ArchConfig::new_organization(8, 1);
        let program = runtime.compile("ab|cd").unwrap();
        let mut input = vec![b'x'; 10_000];
        input.extend_from_slice(b"cd");
        input.extend(vec![b'y'; 100]);
        let whole = simulate(&program, &input, &config);
        for chunk_size in [1usize, 7, 256, 100_000] {
            let report = runtime
                .scan_stream(&program, Cursor::new(input.clone()), &config, &options(chunk_size))
                .unwrap();
            assert_eq!(report.outcome, MatchOutcome::Complete(whole), "chunk={chunk_size}");
        }
    }

    #[test]
    fn acceptance_stops_reading_the_source_early() {
        let runtime = runtime();
        let config = ArchConfig::old_organization(1);
        let mut input = b"xxabxx".to_vec();
        input.extend(vec![b'z'; 1 << 20]);
        let report =
            stream_pattern(&runtime, "ab", Cursor::new(input), &config, &options(64)).unwrap();
        assert!(report.outcome.is_complete());
        assert!(report.outcome.report().unwrap().accepted);
        assert!(
            report.bytes < 1024,
            "the session should stop near the match, read {} bytes",
            report.bytes
        );
    }

    #[test]
    fn peak_buffer_stays_within_chunk_and_window() {
        let runtime = runtime();
        let config = ArchConfig::new_organization(8, 1);
        let chunk = 512usize;
        let input = vec![b'q'; 64 * 1024];
        let report =
            stream_pattern(&runtime, "ab|cd", Cursor::new(input), &config, &options(chunk))
                .unwrap();
        assert!(report.outcome.is_complete());
        assert!(
            report.peak_buffered <= chunk + config.window(),
            "peak {} exceeds chunk + window",
            report.peak_buffered
        );
        assert!(report.suspends > 0);
    }

    #[test]
    fn zero_chunk_size_is_rejected() {
        let runtime = runtime();
        let config = ArchConfig::old_organization(1);
        let err = stream_pattern(&runtime, "ab", Cursor::new(b"x".to_vec()), &config, &options(0))
            .unwrap_err();
        assert!(matches!(&err, StreamError::Options(m) if m.contains("chunk size")), "{err}");
    }

    #[test]
    fn io_errors_surface_mid_stream() {
        struct FailingReader(usize);
        impl Read for FailingReader {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::other("disk on fire"));
                }
                let n = self.0.min(buf.len());
                self.0 -= n;
                buf[..n].fill(b'x');
                Ok(n)
            }
        }
        let runtime = runtime();
        let config = ArchConfig::old_organization(1);
        let err = stream_pattern(&runtime, "ab", FailingReader(2048), &config, &options(256))
            .unwrap_err();
        assert!(matches!(&err, StreamError::Io(e) if e.to_string().contains("disk on fire")));
    }

    #[test]
    fn fuel_cuts_off_a_streaming_session() {
        let runtime = runtime();
        let config = ArchConfig::old_organization(1);
        let opts = StreamOptions { budget: Budget::with_fuel(16), ..options(64) };
        let report =
            stream_pattern(&runtime, "ab|cd", Cursor::new(vec![b'x'; 4096]), &config, &opts)
                .unwrap();
        match report.outcome {
            MatchOutcome::Budget { kind: BudgetKind::Fuel, partial: Some(partial) } => {
                assert_eq!(partial.cycles, 16);
            }
            other => panic!("expected a fuel cut-off, got {other:?}"),
        }
    }

    #[test]
    fn an_expired_deadline_concludes_with_partial_progress() {
        let runtime = runtime();
        let config = ArchConfig::old_organization(1);
        let opts = StreamOptions { budget: Budget::with_deadline(Duration::ZERO), ..options(64) };
        let report =
            stream_pattern(&runtime, "ab|cd", Cursor::new(vec![b'x'; 4096]), &config, &opts)
                .unwrap();
        assert!(
            matches!(report.outcome, MatchOutcome::Budget { kind: BudgetKind::Deadline, .. }),
            "{:?}",
            report.outcome
        );
    }

    #[test]
    fn stream_telemetry_is_recorded() {
        let telemetry = Telemetry::new();
        let runtime = Runtime::new(RuntimeOptions { jobs: 1, ..RuntimeOptions::default() })
            .with_telemetry(telemetry.clone());
        let config = ArchConfig::old_organization(1);
        let report = stream_pattern(
            &runtime,
            "ab|cd",
            Cursor::new(vec![b'x'; 2048]),
            &config,
            &options(256),
        )
        .unwrap();
        assert_eq!(telemetry.counter("stream.sessions"), 1);
        assert_eq!(telemetry.counter("stream.chunks"), report.chunks);
        assert_eq!(telemetry.counter("stream.bytes"), 2048);
        assert!(telemetry.histogram("stream.peak_buffered").is_some());
        // The concluded run folds into the sim.* series like batch runs do.
        assert_eq!(telemetry.counter("sim.runs"), 1);
    }

    fn host_runtime() -> Runtime {
        let compiler =
            cicero_core::CompilerOptions::optimized().with_backend(cicero_core::Backend::Host);
        Runtime::new(RuntimeOptions { jobs: 1, compiler, ..RuntimeOptions::default() })
    }

    #[test]
    fn host_streamed_scan_is_chunk_split_invariant() {
        let runtime = host_runtime();
        let config = ArchConfig::new_organization(8, 1);
        let program = runtime.compile("ab|cd").unwrap();
        let mut input = vec![b'x'; 10_000];
        input.extend_from_slice(b"cd");
        input.extend(vec![b'y'; 100]);
        let host = runtime.host_program(&program);
        let whole = host.run(&input);
        for chunk_size in [1usize, 7, 256, 100_000] {
            let report = runtime
                .scan_stream(&program, Cursor::new(input.clone()), &config, &options(chunk_size))
                .unwrap();
            let exec = report.outcome.report().expect("complete");
            assert!(report.outcome.is_complete(), "chunk={chunk_size}");
            assert_eq!(exec.accepted, whole.accepted, "chunk={chunk_size}");
            assert_eq!(exec.match_position, whole.match_position, "chunk={chunk_size}");
            // And the host verdict equals the interpreter oracle.
            let oracle = cicero_isa::run(&program, &input);
            assert_eq!(exec.accepted, oracle.accepted);
            assert_eq!(exec.match_position, oracle.match_position);
        }
    }

    #[test]
    fn host_stream_fuel_cuts_off_by_bytes() {
        let runtime = host_runtime();
        let config = ArchConfig::old_organization(1);
        let opts = StreamOptions { budget: Budget::with_fuel(16), ..options(64) };
        let report =
            stream_pattern(&runtime, "ab|cd", Cursor::new(vec![b'x'; 4096]), &config, &opts)
                .unwrap();
        match report.outcome {
            MatchOutcome::Budget { kind: BudgetKind::Fuel, partial: Some(partial) } => {
                assert_eq!(partial.cycles, 16, "host fuel is a byte budget");
            }
            other => panic!("expected a fuel cut-off, got {other:?}"),
        }
    }

    #[test]
    fn host_stream_stops_reading_early_on_acceptance() {
        let runtime = host_runtime();
        let config = ArchConfig::old_organization(1);
        let mut input = b"xxabxx".to_vec();
        input.extend(vec![b'z'; 1 << 20]);
        let report =
            stream_pattern(&runtime, "ab", Cursor::new(input), &config, &options(64)).unwrap();
        assert!(report.outcome.is_complete());
        assert!(report.outcome.report().unwrap().accepted);
        assert!(report.bytes < 1024, "read {} bytes", report.bytes);
    }

    #[test]
    fn empty_sources_stream_cleanly() {
        let runtime = runtime();
        let config = ArchConfig::old_organization(1);
        let program = runtime.compile("a").unwrap();
        let report =
            runtime.scan_stream(&program, Cursor::new(Vec::new()), &config, &options(64)).unwrap();
        assert_eq!(report.bytes, 0);
        assert_eq!(report.outcome, MatchOutcome::Complete(simulate(&program, b"", &config)));
    }
}
