//! The cycle-by-cycle machine model.
//!
//! # Model summary
//!
//! Threads are `(PC, position)` pairs. Each engine keeps one FIFO per
//! window slot (position modulo `2^CC_ID`) with a Thompson-set duplicate
//! filter, and each core runs a three-stage pipeline:
//!
//! * **S1 fetch** — pop a thread, look up its PC in the core's
//!   direct-mapped icache; a miss stalls the core for the fill latency of
//!   the engine's central instruction memory (BRAM-banked, one fill port
//!   per core);
//! * **S2 execute** — matching ops consume a character and route the
//!   successor to the next window slot; control-flow ops stay in the same
//!   slot; acceptance halts the whole machine;
//! * **S3 second push** — a `Split`'s second target is pushed one cycle
//!   after the first, occupying the extra stage (Figure 4's `S3` row).
//!
//! A queued successor produced one cycle is poppable the next; a thread's
//! *single* successor is forwarded straight back into an idle pipeline,
//! reproducing the back-to-back dependent executions visible in
//! Figure 4's S2 rows.
//!
//! **Lockstep window**: live threads span at most `2^CC_ID` consecutive
//! positions. A match whose successor would leave the window re-queues and
//! retries (`window_stall_cycles`), which models FIFO-slot backpressure
//! while guaranteeing the oldest position always progresses.
//!
//! **Routing**: in the old organization every new thread is offered to the
//! distributed balancer, which offloads to the ring successor when the
//! local engine holds more queued threads (≥ 2-cycle transfer). In the new
//! organization control-flow successors stay on their core, match
//! successors move to the adjacent FIFO ("a thread coming from FIFO N …
//! can only end up in FIFO N or N+1"), and only the last core may offload
//! to the ring.

use std::collections::{BTreeMap, HashMap, VecDeque};

use cicero_isa::{Instruction, Program};

use crate::cache::ICache;
use crate::config::{ArchConfig, Organization};
use crate::stats::ExecReport;
use crate::trace::{TraceEvent, TraceNote};

/// Run `program` over `input` on the configured architecture.
pub fn simulate(program: &Program, input: &[u8], config: &ArchConfig) -> ExecReport {
    Machine::new(program, config.clone()).run(input)
}

/// Like [`simulate`], but folding the run's counters and histograms into
/// `telemetry` (see [`ExecReport::record_into`]).
pub fn simulate_with_telemetry(
    program: &Program,
    input: &[u8],
    config: &ArchConfig,
    telemetry: &cicero_telemetry::Telemetry,
) -> ExecReport {
    let mut machine = Machine::new(program, config.clone());
    machine.attach_telemetry(telemetry.clone());
    machine.run(input)
}

/// Run one program over many inputs (e.g. the benchmark chunks of one RE),
/// keeping the instruction caches warm between runs as the hardware does —
/// reprogramming flushes the caches, streaming new data does not.
///
/// Between chunks the engine's prefetcher refreshes each core's cache from
/// the resident program image ([`Machine::prefetch_icache`]), so every run
/// starts from the same canonical warm state. This makes each report a
/// function of `(program, input, config)` alone — batch results are
/// independent of input order and of how a batch is partitioned across
/// workers, which is what lets a worker pool (one machine per worker, as
/// in `cicero-runtime`) return byte-identical reports for any worker
/// count. This sequential driver is the reference such pools are tested
/// against.
pub fn simulate_batch(
    program: &Program,
    inputs: &[Vec<u8>],
    config: &ArchConfig,
) -> Vec<ExecReport> {
    let mut machine = Machine::new(program, config.clone());
    inputs
        .iter()
        .map(|input| {
            machine.prefetch_icache();
            machine.run(input)
        })
        .collect()
}

/// Source of input bytes for the machine: a whole in-memory slice, or the
/// sliding window of a [`StreamBuffer`] during streaming execution.
///
/// `byte_at(pos)` returns `None` at (and past) end of input — exactly
/// `input.get(pos).copied()` for a slice. A streaming source must keep
/// every byte the live window can still reach; the machine only ever reads
/// positions of currently live threads, which span at most one lockstep
/// window starting at the oldest live position.
///
/// [`StreamBuffer`]: crate::stream::StreamBuffer
pub trait InputRead {
    /// The byte at absolute position `pos`, or `None` at end of input.
    fn byte_at(&self, pos: usize) -> Option<u8>;
}

impl InputRead for [u8] {
    fn byte_at(&self, pos: usize) -> Option<u8> {
        self.get(pos).copied()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Thread {
    pc: u16,
    pos: usize,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    pc: u16,
    pos: usize,
}

#[derive(Debug)]
struct Core {
    icache: ICache,
    s1: Option<Slot>,
    s2: Option<Slot>,
    s3: Option<Slot>,
    stall_until: u64,
}

impl Core {
    fn new(config: &ArchConfig) -> Core {
        Core { icache: ICache::new(&config.cache), s1: None, s2: None, s3: None, stall_until: 0 }
    }

    fn idle(&self) -> bool {
        self.s1.is_none() && self.s2.is_none() && self.s3.is_none()
    }
}

#[derive(Debug)]
struct Engine {
    cores: Vec<Core>,
    /// Per-position thread queues (the FIFOs, keyed by absolute position).
    queues: BTreeMap<usize, VecDeque<u16>>,
    /// Thompson duplicate filter: per position, a PC bitset.
    seen: HashMap<usize, Vec<u64>>,
    /// Total queued threads (the balancer's load metric).
    queued: usize,
}

impl Engine {
    fn new(config: &ArchConfig) -> Engine {
        Engine {
            cores: (0..config.cores_per_engine).map(|_| Core::new(config)).collect(),
            queues: BTreeMap::new(),
            seen: HashMap::new(),
            queued: 0,
        }
    }
}

/// How a pushed thread reached the queues, for routing and dedup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PushKind {
    /// Same-position successor (split/jump/not-match).
    Control,
    /// Next-position successor (match/match-any).
    Consume,
    /// Window-blocked retry: bypasses the duplicate filter.
    Requeue,
}

/// A cycle-accurate Cicero machine bound to one program and input.
#[derive(Debug)]
pub struct Machine<'p> {
    program: &'p Program,
    config: ArchConfig,
    engines: Vec<Engine>,
    /// Scheduled deliveries: cycle → (engine, thread).
    pending: BTreeMap<u64, Vec<(usize, Thread)>>,
    /// Live threads per position (global, drives the window base).
    counts: BTreeMap<usize, usize>,
    live: usize,
    cycle: u64,
    report: ExecReport,
    accepted: Option<usize>,
    matched_id: Option<u16>,
    /// Load snapshot taken at the start of each cycle.
    loads: Vec<usize>,
    /// Pipeline trace, when enabled via [`Machine::run_traced`].
    trace: Option<Vec<TraceEvent>>,
    /// Telemetry collector; every finished run is folded into it.
    telemetry: Option<cicero_telemetry::Telemetry>,
    /// Cumulative icache counters snapshotted at [`Machine::begin`]; the
    /// per-run `icache_*` report fields are the delta beyond this.
    icache_baseline: crate::cache::CacheCounters,
}

impl<'p> Machine<'p> {
    /// Create a machine for the given program and configuration.
    pub fn new(program: &'p Program, config: ArchConfig) -> Machine<'p> {
        // A one-slot window (`CC_ID = 0`) livelocks by construction: a
        // consuming match's successor lands at `pos + 1`, which can never
        // fit inside `[base, base + 1)`, so the thread requeues until the
        // cycle limit. Fail loudly instead of spinning for `max_cycles`.
        assert!(
            config.window() >= 2,
            "cc_id_bits must be >= 1: a window of one character cannot accept a consuming \
             successor, so the FIFO window deadlocks"
        );
        let engines = (0..config.engines).map(|_| Engine::new(&config)).collect();
        Machine {
            program,
            config,
            engines,
            pending: BTreeMap::new(),
            counts: BTreeMap::new(),
            live: 0,
            cycle: 0,
            report: ExecReport::default(),
            accepted: None,
            matched_id: None,
            loads: Vec::new(),
            trace: None,
            telemetry: None,
            icache_baseline: crate::cache::CacheCounters::default(),
        }
    }

    /// Attach a telemetry collector: each subsequent [`Machine::run`]
    /// emits a `sim.run` span and folds its [`ExecReport`] into the
    /// collector's `sim.*` histograms and counters.
    pub fn attach_telemetry(&mut self, telemetry: cicero_telemetry::Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Refresh every core's instruction cache from the resident program
    /// image (see [`ICache::prefetch`]): tags end up in the canonical warm
    /// state regardless of what ran before, counters are untouched. Batch
    /// drivers call this between inputs — streaming new data never flushes
    /// the caches, and the refresh is free because chunk arrival latency
    /// dominates the (already resident) image walk.
    pub fn prefetch_icache(&mut self) {
        let program_len = self.program.len();
        for engine in &mut self.engines {
            for core in &mut engine.cores {
                core.icache.prefetch(program_len);
            }
        }
    }

    /// Lifetime-cumulative instruction-cache counters summed over every
    /// core — the single source of truth the per-run `icache_*` report
    /// fields are derived from (by snapshot/delta around each run).
    pub fn icache_counters(&self) -> crate::cache::CacheCounters {
        let mut total = crate::cache::CacheCounters::default();
        for engine in &self.engines {
            for core in &engine.cores {
                let counters = core.icache.counters();
                total.hits += counters.hits;
                total.misses += counters.misses;
            }
        }
        total
    }

    /// Reset all dynamic state (threads, queues, filters, pipelines) while
    /// keeping instruction-cache contents warm.
    fn reset(&mut self) {
        self.pending.clear();
        self.counts.clear();
        self.live = 0;
        self.cycle = 0;
        self.report = ExecReport::default();
        self.accepted = None;
        self.matched_id = None;
        self.loads.clear();
        if let Some(trace) = self.trace.as_mut() {
            trace.clear();
        }
        for engine in &mut self.engines {
            engine.queues.clear();
            engine.seen.clear();
            engine.queued = 0;
            for core in &mut engine.cores {
                core.s1 = None;
                core.s2 = None;
                core.s3 = None;
                core.stall_until = 0;
            }
        }
    }

    /// Run with pipeline tracing enabled, returning the report plus every
    /// stage event (see [`crate::trace::render_trace`] for the Figure-4
    /// style rendering). Tracing records events but never alters timing.
    pub fn run_traced(&mut self, input: &[u8]) -> (ExecReport, Vec<TraceEvent>) {
        self.trace = Some(Vec::new());
        let report = self.run(input);
        let events = self.trace.take().expect("trace enabled above");
        (report, events)
    }

    /// Run the program over one input, seeding the initial thread (PC 0,
    /// position 0) in engine 0. Can be called repeatedly; instruction
    /// caches stay warm across calls.
    pub fn run(&mut self, input: &[u8]) -> ExecReport {
        let run_span = self.telemetry.as_ref().map(|t| {
            let span = t.span("sim.run");
            span.annotate("input_len", input.len());
            span.annotate("config", self.config.name());
            span
        });
        self.begin();
        self.drive(input, None);
        let report = self.finalize();
        if let Some(span) = run_span {
            span.annotate("cycles", report.cycles);
            span.annotate("accepted", report.accepted);
        }
        report
    }

    /// Start a run: reset dynamic state, snapshot the icache counters, and
    /// seed the initial thread (PC 0, position 0) in engine 0. Paired with
    /// [`Machine::drive`] and [`Machine::finalize`]; [`Machine::run`] is
    /// the three in sequence over a whole in-memory input.
    pub(crate) fn begin(&mut self) {
        self.reset();
        // Per-run cache accounting is a delta over the cores' cumulative
        // counters: the tags stay warm across runs, the counters are never
        // reset, and this run's hits/misses are whatever the cores
        // accumulate beyond this snapshot.
        self.icache_baseline = self.icache_counters();
        self.push(0, Thread { pc: 0, pos: 0 }, PushKind::Control, 0);
    }

    /// Execute cycles until the run concludes (returns `true`: acceptance,
    /// a dead thread set, or the cycle limit) or — when `pause_before` is
    /// `Some(available)` — until some live thread sits at a position `>=
    /// available` (returns `false`).
    ///
    /// Pausing happens *before* the blocked cycle executes and mutates no
    /// state, so resuming with more input replays the exact cycle sequence
    /// of a whole-input run: streamed reports are byte-identical to
    /// [`Machine::run`]'s for every chunking. The pause test is sound
    /// because every position a core can read this cycle belongs to a live
    /// thread, and `counts` tracks all live threads (queued, scheduled,
    /// and in-pipeline).
    pub(crate) fn drive<I: InputRead + ?Sized>(
        &mut self,
        input: &I,
        pause_before: Option<usize>,
    ) -> bool {
        loop {
            if self.cycle >= self.config.max_cycles {
                self.report.hit_cycle_limit = true;
                return true;
            }
            self.deliver();
            if self.live == 0 {
                return true;
            }
            if let Some(available) = pause_before {
                let frontier = self.counts.keys().next_back().copied();
                if frontier.is_some_and(|pos| pos >= available) {
                    return false;
                }
            }
            // Load = queued + in-flight work; counting pipeline occupancy
            // lets the balancer see a busy neighbour before its FIFOs
            // back up, which is what pushes distribution past the first
            // ring hop.
            self.loads = self
                .engines
                .iter()
                .map(|e| {
                    e.queued
                        + e.cores
                            .iter()
                            .map(|c| {
                                usize::from(c.s1.is_some())
                                    + usize::from(c.s2.is_some())
                                    + usize::from(c.s3.is_some())
                            })
                            .sum::<usize>()
                })
                .collect();
            let engines = self.engines.len();
            'cores: for e in 0..engines {
                for c in 0..self.engines[e].cores.len() {
                    self.step_core(e, c, input);
                    if self.accepted.is_some() {
                        break 'cores;
                    }
                }
            }
            self.cycle += 1;
            if self.accepted.is_some() {
                return true;
            }
            self.collect_garbage();
        }
    }

    /// Fill in the report's summary fields (cycle count, verdict, icache
    /// deltas) and fold the run into the attached telemetry. Returns the
    /// completed report.
    pub(crate) fn finalize(&mut self) -> ExecReport {
        let icache_now = self.icache_counters();
        self.report.icache_hits = icache_now.hits - self.icache_baseline.hits;
        self.report.icache_misses = icache_now.misses - self.icache_baseline.misses;
        self.report.cycles = self.cycle;
        self.report.accepted = self.accepted.is_some();
        self.report.match_position = self.accepted;
        self.report.matched_id = self.matched_id;
        if let Some(telemetry) = &self.telemetry {
            self.report.record_into(telemetry);
        }
        self.report
    }

    /// The oldest live position (the lockstep window's base), or `None`
    /// when no thread is live. Bytes below the base can never be read
    /// again — positions only increase — so a streaming buffer may drop
    /// them.
    pub(crate) fn window_base(&self) -> Option<usize> {
        self.counts.keys().next().copied()
    }

    /// Move due deliveries into engine queues.
    fn deliver(&mut self) {
        let due: Vec<u64> = self.pending.range(..=self.cycle).map(|(k, _)| *k).collect();
        for key in due {
            for (engine_index, thread) in self.pending.remove(&key).expect("key present") {
                let engine = &mut self.engines[engine_index];
                engine.queues.entry(thread.pos).or_default().push_back(thread.pc);
                engine.queued += 1;
            }
        }
    }

    /// Advance one core by one cycle.
    fn step_core<I: InputRead + ?Sized>(&mut self, e: usize, c: usize, input: &I) {
        let window = self.config.window();
        let base = match self.counts.keys().next() {
            Some(b) => *b,
            None => return,
        };

        // Split-borrow the engine so the core and the queues are
        // independently mutable.
        let engine = &mut self.engines[e];
        let Engine { cores, queues, seen, queued } = engine;
        let core = &mut cores[c];

        if self.cycle < core.stall_until {
            self.report.memory_stall_cycles += 1;
            return;
        }

        // Local effect buffers (applied after the borrows end).
        let mut pushes: Vec<(Thread, PushKind)> = Vec::new();
        let mut retires: Vec<usize> = Vec::new();
        let mut accepted: Option<usize> = None;
        let mut accepted_id: Option<u16> = None;
        let tracing = self.trace.is_some();
        let mut events: Vec<TraceEvent> = Vec::new();
        let cycle = self.cycle;
        let mut record = |stage: u8, pc: u16, pos: usize, note: TraceNote| {
            events.push(TraceEvent { cycle, engine: e, core: c, stage, pc, pos, note });
        };
        // S2 → S1 forwarding: a thread's first successor re-enters this
        // core's pipeline directly (Figure 4 shows dependent instructions
        // in back-to-back S2 slots). In the new organization a consuming
        // successor belongs to the adjacent core, so only control-flow
        // successors forward.
        let mut forward: Option<(Thread, PushKind)> = None;

        // S3: the split's second target.
        if let Some(slot) = core.s3.take() {
            match self.program.get(slot.pc) {
                Some(Instruction::Split(target)) => {
                    if tracing {
                        record(3, slot.pc, slot.pos, TraceNote::SecondTarget(target));
                    }
                    pushes.push((Thread { pc: target, pos: slot.pos }, PushKind::Control));
                    retires.push(slot.pos);
                }
                other => unreachable!("S3 holds a split, found {other:?}"),
            }
        }

        // S1 → S2: a fetched thread advances to execute unless a forwarded
        // thread already occupies S2.
        if core.s2.is_none() {
            core.s2 = core.s1.take();
        }

        // S2: execute.
        if let Some(slot) = core.s2 {
            let ins = self.program.get(slot.pc).expect("validated program");
            let ch = input.byte_at(slot.pos);
            self.report.instructions += 1;
            match ins {
                Instruction::Split(target) => {
                    if tracing {
                        record(2, slot.pc, slot.pos, TraceNote::SplitTo(target));
                    }
                    forward = Some((Thread { pc: slot.pc + 1, pos: slot.pos }, PushKind::Control));
                    core.s3 = Some(slot);
                }
                Instruction::Jump(target) => {
                    if tracing {
                        record(2, slot.pc, slot.pos, TraceNote::Jumped(target));
                    }
                    forward = Some((Thread { pc: target, pos: slot.pos }, PushKind::Control));
                    retires.push(slot.pos);
                }
                Instruction::Match(_) | Instruction::MatchAny => {
                    let matched = match ins {
                        Instruction::Match(expected) => ch == Some(expected),
                        _ => ch.is_some(),
                    };
                    if matched {
                        if slot.pos + 1 >= base + window {
                            // FIFO-slot backpressure: retry until the
                            // window slides.
                            if tracing {
                                record(2, slot.pc, slot.pos, TraceNote::Requeued);
                            }
                            self.report.window_stall_cycles += 1;
                            self.report.instructions -= 1; // not executed
                            pushes.push((Thread { pc: slot.pc, pos: slot.pos }, PushKind::Requeue));
                        } else {
                            if tracing {
                                record(2, slot.pc, slot.pos, TraceNote::Matched);
                            }
                            forward = Some((
                                Thread { pc: slot.pc + 1, pos: slot.pos + 1 },
                                PushKind::Consume,
                            ));
                            retires.push(slot.pos);
                        }
                    } else {
                        if tracing {
                            record(2, slot.pc, slot.pos, TraceNote::Killed);
                        }
                        retires.push(slot.pos); // thread killed
                    }
                }
                Instruction::NotMatch(unexpected) => {
                    let pass = ch.is_some() && ch != Some(unexpected);
                    if tracing {
                        record(
                            2,
                            slot.pc,
                            slot.pos,
                            if pass { TraceNote::Matched } else { TraceNote::Killed },
                        );
                    }
                    if pass {
                        forward =
                            Some((Thread { pc: slot.pc + 1, pos: slot.pos }, PushKind::Control));
                    }
                    retires.push(slot.pos);
                }
                Instruction::Accept => {
                    if ch.is_none() {
                        accepted = Some(slot.pos);
                    }
                    if tracing {
                        let note =
                            if ch.is_none() { TraceNote::Accepted } else { TraceNote::Killed };
                        record(2, slot.pc, slot.pos, note);
                    }
                    retires.push(slot.pos);
                }
                Instruction::AcceptPartial => {
                    if tracing {
                        record(2, slot.pc, slot.pos, TraceNote::Accepted);
                    }
                    accepted = Some(slot.pos);
                    retires.push(slot.pos);
                }
                Instruction::AcceptPartialId(id) => {
                    if tracing {
                        record(2, slot.pc, slot.pos, TraceNote::Accepted);
                    }
                    accepted = Some(slot.pos);
                    accepted_id = Some(id);
                    retires.push(slot.pos);
                }
            }
            core.s2 = None;
        }

        // Fill: a forwarded successor goes straight back into S2 (its
        // fetch overlapped with execution — Figure 4 shows dependent
        // instructions in back-to-back S2 slots); popped threads fetch
        // through S1.
        if let Some((thread, kind)) = forward.take() {
            let eligible = match self.config.organization {
                // The time-multiplexed core owns every FIFO: any single
                // successor can re-enter the pipeline directly.
                Organization::Old => true,
                // A consuming successor belongs to the adjacent core.
                Organization::New => kind == PushKind::Control,
            };
            // Forward only into an idle pipeline: if S1 holds a fetched
            // thread, bypassing it every cycle would starve the FIFOs (the
            // hardware interleaves FIFO pops with in-flight successors, as
            // Figure 4's old-engine rows show).
            if !eligible || core.s2.is_some() || core.s1.is_some() {
                pushes.push((thread, kind));
            } else {
                // The duplicate filter still applies: the forwarded thread
                // is part of the engine's Thompson set.
                let admitted = if self.config.dedup {
                    let bits = seen
                        .entry(thread.pos)
                        .or_insert_with(|| vec![0u64; self.program.len().div_ceil(64)]);
                    let word = usize::from(thread.pc) / 64;
                    let bit = 1u64 << (thread.pc % 64);
                    if bits[word] & bit != 0 {
                        self.report.deduplicated += 1;
                        false
                    } else {
                        bits[word] |= bit;
                        true
                    }
                } else {
                    true
                };
                if admitted {
                    *self.counts.entry(thread.pos).or_insert(0) += 1;
                    self.live += 1;
                    self.report.peak_threads = self.report.peak_threads.max(self.live);
                    if !core.icache.access(thread.pc) {
                        core.stall_until = self.cycle + 1 + self.config.cache.miss_penalty;
                    }
                    core.s2 = Some(Slot { pc: thread.pc, pos: thread.pos });
                }
            }
        }
        if core.s1.is_none() {
            let position = match self.config.organization {
                Organization::Old => queues.iter().find(|(_, q)| !q.is_empty()).map(|(p, _)| *p),
                Organization::New => {
                    queues.iter().find(|(p, q)| *p % window == c && !q.is_empty()).map(|(p, _)| *p)
                }
            };
            if let Some(pos) = position {
                let queue = queues.get_mut(&pos).expect("position found");
                let pc = queue.pop_front().expect("non-empty");
                if queue.is_empty() {
                    queues.remove(&pos);
                }
                *queued -= 1;
                if !core.icache.access(pc) {
                    core.stall_until = self.cycle + 1 + self.config.cache.miss_penalty;
                }
                if tracing {
                    record(1, pc, pos, TraceNote::Fetched);
                }
                core.s1 = Some(Slot { pc, pos });
            }
        }

        // Apply buffered effects.
        let origin_core = c;
        for (thread, kind) in pushes {
            self.route_and_push(e, origin_core, thread, kind);
        }
        for pos in retires {
            self.retire(pos);
        }
        if let Some(pos) = accepted {
            self.accepted = Some(pos);
            self.matched_id = accepted_id;
        }
        if let Some(trace) = self.trace.as_mut() {
            trace.extend(events);
        }
    }

    /// Decide the destination engine and schedule the push.
    fn route_and_push(&mut self, e: usize, origin_core: usize, thread: Thread, kind: PushKind) {
        let next_engine = (e + 1) % self.engines.len();
        let (dest, latency) = match self.config.organization {
            Organization::Old => {
                // Every novel PC is offered to the distributed balancer.
                let offload = kind != PushKind::Requeue
                    && self.engines.len() > 1
                    && self.loads.get(e).copied().unwrap_or(0)
                        > self.loads.get(next_engine).copied().unwrap_or(0)
                            + self.config.lb_threshold;
                if offload {
                    (next_engine, self.config.lb_latency)
                } else {
                    (e, 1)
                }
            }
            Organization::New => {
                // Only the last core's consuming successors reach the ring.
                let is_last_core = origin_core == self.config.cores_per_engine - 1;
                let offload = kind == PushKind::Consume
                    && is_last_core
                    && self.engines.len() > 1
                    && self.loads.get(e).copied().unwrap_or(0)
                        > self.loads.get(next_engine).copied().unwrap_or(0)
                            + self.config.lb_threshold;
                if offload {
                    (next_engine, self.config.lb_latency)
                } else {
                    (e, 1)
                }
            }
        };
        if dest != e {
            self.report.cross_engine_transfers += 1;
        }
        self.push(dest, thread, kind, self.cycle + latency);
    }

    /// Apply the duplicate filter, account the thread, and schedule its
    /// delivery.
    fn push(&mut self, engine_index: usize, thread: Thread, kind: PushKind, ready_at: u64) {
        if self.config.dedup && kind != PushKind::Requeue {
            let seen = self.engines[engine_index]
                .seen
                .entry(thread.pos)
                .or_insert_with(|| vec![0u64; self.program.len().div_ceil(64)]);
            let word = usize::from(thread.pc) / 64;
            let bit = 1u64 << (thread.pc % 64);
            if seen[word] & bit != 0 {
                self.report.deduplicated += 1;
                return;
            }
            seen[word] |= bit;
        }
        if kind != PushKind::Requeue {
            *self.counts.entry(thread.pos).or_insert(0) += 1;
            self.live += 1;
            self.report.peak_threads = self.report.peak_threads.max(self.live);
        }
        self.pending.entry(ready_at).or_default().push((engine_index, thread));
    }

    /// A thread finished (killed, jumped away, or consumed a character).
    fn retire(&mut self, pos: usize) {
        let count = self.counts.get_mut(&pos).expect("retiring unknown position");
        *count -= 1;
        if *count == 0 {
            self.counts.remove(&pos);
        }
        self.live -= 1;
    }

    /// Drop duplicate-filter state for positions the window slid past.
    fn collect_garbage(&mut self) {
        let Some(base) = self.counts.keys().next().copied() else {
            for engine in &mut self.engines {
                engine.seen.clear();
            }
            return;
        };
        for engine in &mut self.engines {
            if engine.seen.len() > 2 * self.config.window() {
                engine.seen.retain(|pos, _| *pos >= base);
            }
        }
    }

    /// Whether any core holds in-flight work (used by tests).
    pub fn pipelines_empty(&self) -> bool {
        self.engines.iter().all(|e| e.cores.iter().all(Core::idle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cicero_isa::Instruction::*;

    fn program(instructions: Vec<Instruction>) -> Program {
        Program::from_instructions(instructions).unwrap()
    }

    /// `ab|cd` with implicit `.*`, jump-simplified (Listing 2 right).
    fn ab_or_cd() -> Program {
        program(vec![
            Split(3),
            MatchAny,
            Jump(0),
            Split(7),
            Match(b'a'),
            Match(b'b'),
            AcceptPartial,
            Match(b'c'),
            Match(b'd'),
            AcceptPartial,
        ])
    }

    fn all_configs() -> Vec<ArchConfig> {
        vec![
            ArchConfig::old_organization(1),
            ArchConfig::old_organization(4),
            ArchConfig::old_organization(9),
            ArchConfig::new_organization(8, 1),
            ArchConfig::new_organization(16, 1),
            ArchConfig::new_organization(8, 4),
        ]
    }

    #[test]
    fn verdicts_match_the_functional_interpreter() {
        let p = ab_or_cd();
        let inputs: Vec<&[u8]> = vec![
            b"ab",
            b"xxabyy",
            b"xxcd",
            b"ac",
            b"",
            b"ba",
            b"zzzzzzzzzzzzzzzzzzzzcd",
            b"aaaaaaaaab",
        ];
        for config in all_configs() {
            for input in &inputs {
                let expected = cicero_isa::accepts(&p, input);
                let report = simulate(&p, input, &config);
                assert_eq!(
                    report.accepted,
                    expected,
                    "{} on {:?}",
                    config.name(),
                    String::from_utf8_lossy(input)
                );
                assert!(!report.hit_cycle_limit);
            }
        }
    }

    #[test]
    fn match_position_agrees_with_interpreter() {
        // Parallel configurations implement *any-match* semantics: they
        // halt on whichever acceptance fires first in hardware time, which
        // need not be the earliest-ending match ("cd" ends at 3, "ab" at
        // 5). The strictly serial configuration preserves position order.
        let p = ab_or_cd();
        let serial = simulate(&p, b"xcdab", &ArchConfig::old_organization(1));
        assert_eq!(serial.match_position, Some(3));
        for config in all_configs() {
            let report = simulate(&p, b"xcdab", &config);
            assert!(
                matches!(report.match_position, Some(3) | Some(5)),
                "{}: {:?}",
                config.name(),
                report.match_position
            );
        }
    }

    #[test]
    #[should_panic(expected = "cc_id_bits must be >= 1")]
    fn a_one_slot_window_is_rejected() {
        // `CC_ID = 0` would livelock (a consume can never fit its
        // successor in a one-slot window), so construction fails loudly.
        let mut config = ArchConfig::old_organization(1);
        config.cc_id_bits = 0;
        let _ = simulate(&ab_or_cd(), b"ab", &config);
    }

    #[test]
    fn acceptance_halts_early() {
        let p = program(vec![Split(2), AcceptPartial, MatchAny, Jump(0)]);
        let input = vec![b'x'; 10_000];
        let report = simulate(&p, &input, &ArchConfig::old_organization(1));
        assert!(report.accepted);
        assert!(report.cycles < 100, "{report:?}");
    }

    #[test]
    fn rejection_consumes_whole_input() {
        // `^zz$` over a long non-matching input dies immediately; `.*zz`
        // scans all of it.
        let anchored = program(vec![Match(b'z'), Match(b'z'), Accept]);
        let scanning =
            program(vec![Split(3), MatchAny, Jump(0), Match(b'z'), Match(b'z'), AcceptPartial]);
        let input = vec![b'a'; 500];
        let quick = simulate(&anchored, &input, &ArchConfig::old_organization(1));
        let slow = simulate(&scanning, &input, &ArchConfig::old_organization(1));
        assert!(!quick.accepted && !slow.accepted);
        assert!(quick.cycles < 20);
        assert!(slow.cycles > 500, "must examine every offset: {slow:?}");
    }

    #[test]
    fn lone_thread_runs_back_to_back_via_forwarding() {
        // Figure 4 shows dependent instructions in consecutive S2 slots:
        // a lone thread's successor re-enters the pipeline directly, so 5
        // instructions cost ~5 cycles plus fill and cold-miss overhead.
        let p = program(vec![Match(b'a'), Match(b'a'), Match(b'a'), Match(b'a'), Accept]);
        let report = simulate(&p, b"aaaa", &ArchConfig::old_organization(1));
        assert!(report.cycles >= 5, "{report:?}");
        assert!(report.cycles < 30, "{report:?}");
    }

    /// A work-heavy pattern: wide alternation keeps many threads alive at
    /// every position (the Protomata4/Brill4 regime where parallel
    /// organizations pay off). Simple patterns are critical-path-bound —
    /// one dependent chain per character — and see little speedup, which
    /// is the expected behaviour, not a modelling gap.
    fn heavy_program() -> Program {
        cicero_core::compile("(abcd|bcda|cdab|dabc|acbd|bdca|cadb|dbac|aabb|ccdd)")
            .unwrap()
            .into_program()
    }

    #[test]
    fn new_organization_overlaps_positions() {
        // Protomata-style class chain: almost-matching input keeps ~5
        // partial-match states alive at every position, so each window
        // character carries real work and the per-character cores overlap.
        let p = cicero_core::compile("[ab][bc][cd][de][ef][fg]").unwrap().into_program();
        let mut input = Vec::new();
        for _ in 0..60 {
            input.extend_from_slice(b"abcde");
        }
        input.extend_from_slice(b"abcdef");
        let old1 = simulate(&p, &input, &ArchConfig::old_organization(1));
        let new8 = simulate(&p, &input, &ArchConfig::new_organization(8, 1));
        assert!(old1.accepted && new8.accepted);
        assert!(
            new8.cycles * 2 < old1.cycles,
            "new 8x1 {} vs old 1x1 {}",
            new8.cycles,
            old1.cycles
        );
    }

    #[test]
    fn cross_engine_transfers_happen_only_with_multiple_engines() {
        let p = heavy_program();
        let input = vec![b'x'; 200];
        let single = simulate(&p, &input, &ArchConfig::old_organization(1));
        assert_eq!(single.cross_engine_transfers, 0);
        let multi = simulate(&p, &input, &ArchConfig::old_organization(4));
        assert!(multi.cross_engine_transfers > 0, "{multi:?}");
    }

    #[test]
    fn old_multi_engine_helps_on_heavy_patterns() {
        // Table 2's regime before the scaling knee: distributing the
        // enumeration across a few engines beats one engine.
        let p = heavy_program();
        let input = vec![b'x'; 300];
        let one = simulate(&p, &input, &ArchConfig::old_organization(1));
        let four = simulate(&p, &input, &ArchConfig::old_organization(4));
        assert!(four.cycles < one.cycles, "1x4 ({}) should beat 1x1 ({})", four.cycles, one.cycles);
    }

    #[test]
    fn simple_patterns_are_critical_path_bound() {
        // With one live thread chain per character, extra cores cannot
        // help much; the paper's Table 2 shows the same saturation.
        let p = ab_or_cd();
        let input = vec![b'x'; 300];
        let old1 = simulate(&p, &input, &ArchConfig::old_organization(1));
        let new8 = simulate(&p, &input, &ArchConfig::new_organization(8, 1));
        let ratio = old1.cycles as f64 / new8.cycles as f64;
        assert!(ratio < 2.0, "unexpectedly large speedup {ratio} on a serial chain");
    }

    #[test]
    fn dedup_bounds_pathological_split_loops() {
        // split 0 -> {1, 2}; jump 2 -> 0: an ε-cycle that only the
        // duplicate filter terminates.
        let p = program(vec![Split(2), Jump(0), Match(b'a'), Jump(0), Accept]);
        let report = simulate(&p, b"aaa", &ArchConfig::old_organization(1));
        assert!(!report.accepted);
        assert!(!report.hit_cycle_limit);
        assert!(report.deduplicated > 0);
    }

    #[test]
    fn cycle_limit_reported_without_dedup() {
        let p = program(vec![Split(2), Jump(0), Match(b'a'), Jump(0), Accept]);
        let mut config = ArchConfig::old_organization(1);
        config.dedup = false;
        config.max_cycles = 5_000;
        let report = simulate(&p, b"aaa", &config);
        assert!(report.hit_cycle_limit);
    }

    #[test]
    fn window_stalls_appear_when_positions_race_ahead() {
        // A program that consumes greedily with no per-position work: the
        // leading position hits the window edge while position `base`
        // lags behind a split burst.
        let p = program(vec![
            Split(3),
            MatchAny,
            Jump(0),
            // wide split fan to keep the base position busy
            Split(5),
            Jump(3),
            Match(b'q'),
            AcceptPartial,
        ]);
        let input = vec![b'x'; 200];
        let report = simulate(&p, &input, &ArchConfig::new_organization(8, 1));
        assert!(!report.accepted);
        // The run must terminate regardless of stalls.
        assert!(!report.hit_cycle_limit);
    }

    #[test]
    fn icache_misses_scale_with_code_spread() {
        // Same language, two layouts: compact loop vs far jumps.
        let compact = program(vec![Split(3), MatchAny, Jump(0), Match(b'z'), AcceptPartial]);
        // Pad with unreachable instructions so the matcher lands on a
        // cache line that aliases the prefix loop's line (default cache: 8
        // lines of 4 → pc 128 maps to index 0, same as pc 0), forcing
        // conflict misses every character.
        let mut far_instrs = vec![Split(128), MatchAny, Jump(0)];
        while far_instrs.len() < 128 {
            far_instrs.push(Match(b'0'));
        }
        far_instrs.push(Match(b'z')); // 128
        far_instrs.push(AcceptPartial); // 129
        let far = program(far_instrs);
        let input = vec![b'a'; 300];
        let c = ArchConfig::old_organization(1);
        let near_r = simulate(&compact, &input, &c);
        let far_r = simulate(&far, &input, &c);
        assert!(far_r.icache_misses > near_r.icache_misses, "near {near_r:?} far {far_r:?}");
        assert!(far_r.cycles > near_r.cycles);
    }

    #[test]
    fn deterministic() {
        let p = ab_or_cd();
        let input = b"xxxxxxxxxxabxxxx";
        for config in all_configs() {
            let a = simulate(&p, input, &config);
            let b = simulate(&p, input, &config);
            assert_eq!(a, b, "{}", config.name());
        }
    }

    #[test]
    fn telemetry_folds_every_run_into_histograms() {
        let p = ab_or_cd();
        let telemetry = cicero_telemetry::Telemetry::new();
        let mut machine = Machine::new(&p, ArchConfig::old_organization(1));
        machine.attach_telemetry(telemetry.clone());
        let first = machine.run(b"xxab");
        machine.run(b"nothing");
        assert_eq!(telemetry.counter("sim.runs"), 2);
        assert_eq!(telemetry.counter("sim.matches"), 1);
        let cycles = telemetry.histogram("sim.cycles").unwrap();
        assert_eq!(cycles.count, 2);
        assert!(cycles.min >= first.cycles.min(1) as f64);
        assert!(telemetry.histogram("sim.icache_hit_rate").unwrap().count == 2);
        let spans = telemetry.spans();
        assert_eq!(spans.iter().filter(|s| s.name == "sim.run").count(), 2);
        let run = spans.iter().find(|s| s.name == "sim.run").unwrap();
        assert!(run.attrs.iter().any(|(k, _)| k == "cycles"));
    }

    #[test]
    fn telemetry_does_not_change_results() {
        let p = heavy_program();
        let input = vec![b'x'; 200];
        for config in all_configs() {
            let plain = simulate(&p, &input, &config);
            let telemetry = cicero_telemetry::Telemetry::new();
            let observed = simulate_with_telemetry(&p, &input, &config, &telemetry);
            assert_eq!(plain, observed, "{}", config.name());
        }
    }

    #[test]
    fn warm_cache_never_lowers_hit_rate_on_identical_inputs() {
        // Re-running the same input in a batch must never lower the
        // icache hit rate: the caches only get warmer (and the per-run
        // prefetch makes repeated runs identical outright).
        let programs = [ab_or_cd(), heavy_program()];
        let input = b"zzabzzcdzzabzzcdzz".to_vec();
        for program in &programs {
            for config in all_configs() {
                let reports = simulate_batch(
                    program,
                    &[input.clone(), input.clone(), input.clone()],
                    &config,
                );
                let cold = simulate(program, &input, &config);
                for pair in reports.windows(2) {
                    assert!(
                        pair[1].icache_hit_rate() >= pair[0].icache_hit_rate(),
                        "{}: hit rate dropped {:?} -> {:?}",
                        config.name(),
                        pair[0],
                        pair[1]
                    );
                }
                assert!(
                    reports[0].icache_hit_rate() >= cold.icache_hit_rate(),
                    "{}: batch run colder than a fresh machine",
                    config.name()
                );
            }
        }
    }

    #[test]
    fn batch_reports_do_not_depend_on_input_order() {
        // The canonical per-run prefetch makes each report a function of
        // (program, input, config) alone.
        let p = heavy_program();
        let inputs: Vec<Vec<u8>> =
            vec![vec![b'x'; 120], b"xxabcdxx".to_vec(), vec![b'a'; 64], b"dbacdbac".to_vec()];
        let mut reversed = inputs.clone();
        reversed.reverse();
        for config in all_configs() {
            let forward = simulate_batch(&p, &inputs, &config);
            let mut backward = simulate_batch(&p, &reversed, &config);
            backward.reverse();
            assert_eq!(forward, backward, "{}", config.name());
        }
    }

    #[test]
    fn per_run_icache_counters_are_deltas_of_the_cumulative_ones() {
        // Satellite regression: the per-run report fields must stay
        // consistent with the cores' cumulative counters across repeated
        // runs on one machine (they diverged when both were incremented
        // independently and only one was reset).
        let p = heavy_program();
        let mut machine = Machine::new(&p, ArchConfig::new_organization(8, 1));
        let mut summed = (0u64, 0u64);
        for input in [b"xxabcdxx".as_slice(), b"zzzz", b"xxabcdxx"] {
            let report = machine.run(input);
            summed.0 += report.icache_hits;
            summed.1 += report.icache_misses;
            let cumulative = machine.icache_counters();
            assert_eq!((cumulative.hits, cumulative.misses), summed, "after {input:?}");
        }
    }

    #[test]
    fn exact_accept_requires_end_of_input_on_every_config() {
        let p = program(vec![Match(b'a'), Match(b'b'), Accept]);
        for config in all_configs() {
            assert!(simulate(&p, b"ab", &config).accepted, "{}", config.name());
            assert!(!simulate(&p, b"abx", &config).accepted, "{}", config.name());
            assert!(!simulate(&p, b"b", &config).accepted, "{}", config.name());
        }
    }
}
