//! One resumable run on the handle's backend: the unit both the worker
//! pool and the streaming scan drive.
//!
//! A pool worker keeps one session for a batch and [`Session::run`]s
//! each whole input on it, getting the report and the input's set
//! identifiers back together; a streaming scan feeds one session chunk
//! by chunk. Budgets reach the engines the same way on both
//! paths: fuel is already clamped into the simulator's `max_cycles`, and
//! the host engine reads the same clamp as a byte cap.

use cicero_hostexec::{HostMatcher, HostOutcome, HostProgram};
use cicero_isa::{Instruction, Program};
use cicero_sim::{ArchConfig, ExecReport, Machine};

/// The resumable engine behind one session. Both variants give a
/// chunk-split-invariant verdict; they differ in what fuel bounds.
// A session lives on the stack of the loop that runs it and is never
// stored or moved in bulk, so the variants' size gap costs nothing worth
// a box.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Session<'a> {
    /// The cycle-level simulator; fuel is already clamped into its
    /// config's `max_cycles`. `id_program` is the program when it carries
    /// identifiers (`AcceptPartialId`), for the all-matches pass.
    Sim { machine: Machine<'a>, id_program: Option<&'a Program> },
    /// The host engine, whose matcher state is one state mask (one to a
    /// few machine words). Fuel is a byte budget here (`cycles` = bytes
    /// examined in the host report convention), so the session stops
    /// feeding at `byte_cap`, and a whole-input run stops its first scan
    /// there.
    Host {
        host: &'a HostProgram,
        matcher: HostMatcher<'a>,
        byte_cap: u64,
        limit_hit: bool,
        peak_chunk: usize,
    },
}

const NO_MATCH: HostOutcome =
    HostOutcome { accepted: false, match_position: None, matched_id: None };

impl<'a> Session<'a> {
    /// A session on the host engine when `host` is given, else on a fresh
    /// (cold-cache) simulator, under the fuel-clamped `run_config`.
    pub(crate) fn new(
        program: &'a Program,
        host: Option<&'a HostProgram>,
        run_config: ArchConfig,
    ) -> Session<'a> {
        match host {
            Some(host) => Session::Host {
                host,
                matcher: host.matcher(),
                byte_cap: run_config.max_cycles,
                limit_hit: false,
                peak_chunk: 0,
            },
            None => Session::Sim {
                machine: Machine::new(program, run_config),
                id_program: program
                    .instructions()
                    .iter()
                    .any(|insn| matches!(insn, Instruction::AcceptPartialId(_)))
                    .then_some(program),
            },
        }
    }

    /// Run one whole input as this session's next run: its report, and
    /// when it accepted, every distinct set identifier that fires anywhere
    /// in the input, ascending (empty for a program without identifiers).
    ///
    /// The host engine answers both with one [`HostProgram::run_all_within`]
    /// scan, whose first stop is the first-acceptance run's; a first stop
    /// past the byte cap is a limit hit at the cap, with no ids. The
    /// simulator's instruction caches are first refreshed to the canonical
    /// warm state ([`Machine::prefetch_icache`]), so each report is a
    /// function of the input alone, whatever the worker ran before; an
    /// accepting run is followed by [`cicero_isa::run_all`] for the ids.
    pub(crate) fn run(&mut self, input: &[u8]) -> (ExecReport, Vec<u16>) {
        match self {
            Session::Sim { machine, id_program } => {
                machine.prefetch_icache();
                let report = machine.run(input);
                let ids = match id_program {
                    Some(program) if report.accepted => {
                        cicero_isa::run_all(program, input).matched_ids
                    }
                    _ => Vec::new(),
                };
                (report, ids)
            }
            Session::Host { host, byte_cap, .. } => {
                let cap = usize::try_from(*byte_cap).unwrap_or(usize::MAX);
                match host.run_all_within(input, cap) {
                    Some(all) => (host_report(all.first, all.examined, false), all.matched_ids),
                    None => (host_report(NO_MATCH, cap, true), Vec::new()),
                }
            }
        }
    }

    /// Feed one chunk: the bytes consumed, and whether the session is over
    /// (verdict reached, or the byte budget ran out).
    pub(crate) fn feed(&mut self, chunk: &[u8]) -> (usize, bool) {
        match self {
            Session::Sim { machine, .. } => (chunk.len(), machine.feed(chunk).is_some()),
            Session::Host { matcher, byte_cap, limit_hit, peak_chunk, .. } => {
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
    pub(crate) fn finish(&mut self) -> ExecReport {
        match self {
            Session::Sim { machine, .. } => machine.finish(),
            Session::Host { matcher, limit_hit, .. } => {
                let outcome = if *limit_hit { NO_MATCH } else { matcher.finish() };
                host_report(outcome, matcher.position(), *limit_hit)
            }
        }
    }

    /// Deadline expiry: the progress made so far, with no verdict.
    pub(crate) fn abandon(&mut self) -> ExecReport {
        match self {
            Session::Sim { machine, .. } => machine.abandon(),
            Session::Host { matcher, .. } => host_report(NO_MATCH, matcher.position(), false),
        }
    }

    /// Memory high-water mark of the session's input buffering.
    pub(crate) fn peak_buffered(&self) -> usize {
        match self {
            Session::Sim { machine, .. } => machine.peak_resident(),
            Session::Host { peak_chunk, .. } => *peak_chunk,
        }
    }
}

/// Synthesize an [`ExecReport`] from a host-engine run so the host
/// backend flows through the same budget classification, batch
/// accounting, and serving plumbing as the simulator. The convention:
/// `cycles` and `instructions` both mean *input bytes examined* (one byte
/// per step is exactly what the engine does), the i-cache and stall
/// counters stay zero (no microarchitectural model), and
/// `hit_cycle_limit` means the byte budget tripped — so fuel on the host
/// backend is a byte budget.
fn host_report(outcome: HostOutcome, scanned: usize, hit_byte_limit: bool) -> ExecReport {
    ExecReport {
        cycles: scanned as u64,
        accepted: outcome.accepted,
        match_position: outcome.match_position,
        matched_id: outcome.matched_id,
        instructions: scanned as u64,
        hit_cycle_limit: hit_byte_limit,
        ..ExecReport::default()
    }
}
