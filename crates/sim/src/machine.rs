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
//!
//! **State layout**: because every live position lies in `[base, base +
//! window)`, `pos & (window - 1)` names a position without collisions.
//! FIFOs, the duplicate filter and the live-thread counts are therefore
//! flat rings of `window` slots, and scheduled deliveries a ring of
//! `lb_latency + 1` buckets; all are sized in [`Machine::new`] and reused
//! across cycles and runs, so a warmed-up machine allocates nothing.

use std::collections::VecDeque;
use std::time::Instant;

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

#[derive(Debug)]
struct Core {
    icache: ICache,
    s1: Option<Thread>,
    s2: Option<Thread>,
    s3: Option<Thread>,
    stall_until: u64,
}

impl Core {
    fn new(config: &ArchConfig) -> Core {
        Core { icache: ICache::new(&config.cache), s1: None, s2: None, s3: None, stall_until: 0 }
    }

    /// Threads in flight in the pipeline.
    fn occupancy(&self) -> usize {
        usize::from(self.s1.is_some())
            + usize::from(self.s2.is_some())
            + usize::from(self.s3.is_some())
    }
}

/// Thompson duplicate filter of one engine: a PC bitset per window slot.
#[derive(Debug)]
struct Filter {
    /// `words` bitset words per slot, slot-major.
    bits: Vec<u64>,
    /// The position each slot's bitset currently describes. A slot is
    /// zeroed when a new position claims it; the position it held is by
    /// then below the window base (it is congruent to, and cannot exceed,
    /// a position inside the window), so nothing can ask about it again.
    tags: Vec<usize>,
    words: usize,
}

impl Filter {
    /// No position ever equals this tag, so the first use of a slot zeroes it.
    const VACANT: usize = usize::MAX;

    /// Record `(pc, pos)`; `false` if it was already in the set.
    fn admit(&mut self, pc: u16, pos: usize) -> bool {
        let slot = pos & (self.tags.len() - 1);
        let bits = &mut self.bits[slot * self.words..(slot + 1) * self.words];
        if self.tags[slot] != pos {
            self.tags[slot] = pos;
            bits.fill(0);
        }
        let word = &mut bits[usize::from(pc) / 64];
        let bit = 1u64 << (pc % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
}

#[derive(Debug)]
struct Engine {
    cores: Vec<Core>,
    /// The FIFOs: one queue of PCs per window slot (`pos & mask`).
    queues: Vec<VecDeque<u16>>,
    filter: Filter,
    /// Total queued threads (the balancer's load metric).
    queued: usize,
}

impl Engine {
    fn new(config: &ArchConfig, program_len: usize) -> Engine {
        let window = config.window();
        let words = program_len.div_ceil(64);
        Engine {
            cores: (0..config.cores_per_engine).map(|_| Core::new(config)).collect(),
            queues: (0..window).map(|_| VecDeque::new()).collect(),
            filter: Filter {
                bits: vec![0; window * words],
                tags: vec![Filter::VACANT; window],
                words,
            },
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
    /// `window - 1`: `pos & mask` is a position's ring slot.
    mask: usize,
    engines: Vec<Engine>,
    /// Scheduled deliveries `(engine, thread)`, bucketed by `ready_at %
    /// len`. `len = lb_latency + 1` exceeds every scheduling distance, and
    /// each cycle drains its own bucket, so a bucket holds one cycle's
    /// deliveries in push order.
    pending: Vec<Vec<(usize, Thread)>>,
    /// Live threads per window slot (global, drives the window base).
    counts: Vec<usize>,
    /// The oldest live position while `live > 0`.
    base: usize,
    live: usize,
    cycle: u64,
    report: ExecReport,
    accepted: Option<usize>,
    matched_id: Option<u16>,
    /// Per-engine load snapshot taken at the start of each cycle (only
    /// the ring balancer reads it, so only multi-engine machines fill it).
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
        // A free ring hop would be faster than a local FIFO push (which
        // takes a cycle); the paper's ring needs at least 2.
        assert!(
            config.lb_latency >= 1,
            "lb_latency must be >= 1: a cross-engine transfer cannot be faster than a local push"
        );
        let engines = (0..config.engines).map(|_| Engine::new(&config, program.len())).collect();
        let pending = (0..=config.lb_latency).map(|_| Vec::new()).collect();
        Machine {
            program,
            mask: config.window() - 1,
            counts: vec![0; config.window()],
            config,
            engines,
            pending,
            base: 0,
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
    /// folds its [`ExecReport`] into the collector's `sim.*` histograms
    /// and counters, and observes the host time the run cost per simulated
    /// cycle (`sim.host_ns_per_cycle`).
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
    /// keeping instruction-cache contents warm and every buffer's capacity.
    fn reset(&mut self) {
        self.pending.iter_mut().for_each(Vec::clear);
        self.counts.fill(0);
        self.base = 0;
        self.live = 0;
        self.cycle = 0;
        self.report = ExecReport::default();
        self.accepted = None;
        self.matched_id = None;
        if let Some(trace) = self.trace.as_mut() {
            trace.clear();
        }
        for engine in &mut self.engines {
            engine.queues.iter_mut().for_each(VecDeque::clear);
            engine.filter.tags.fill(Filter::VACANT);
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
        self.begin();
        let started = Instant::now();
        self.drive(input, None);
        let host_time = started.elapsed();
        let report = self.finalize();
        if let Some(telemetry) = &self.telemetry {
            crate::stats::record_host_time(telemetry, report.cycles, host_time);
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
            if pause_before.is_some_and(|available| self.frontier() >= available) {
                return false;
            }
            if self.engines.len() > 1 {
                // Load = queued + in-flight work; counting pipeline
                // occupancy lets the balancer see a busy neighbour before
                // its FIFOs back up, which is what pushes distribution
                // past the first ring hop.
                self.loads.clear();
                self.loads.extend(self.engines.iter().map(|engine| {
                    engine.queued + engine.cores.iter().map(Core::occupancy).sum::<usize>()
                }));
            }
            'cores: for e in 0..self.engines.len() {
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
        (self.live > 0).then_some(self.base)
    }

    /// The newest live position. Only meaningful while `live > 0`.
    fn frontier(&self) -> usize {
        (self.base..=self.base + self.mask)
            .rev()
            .find(|pos| self.counts[pos & self.mask] > 0)
            .expect("a live thread sits inside the window")
    }

    /// Move this cycle's deliveries into engine queues.
    fn deliver(&mut self) {
        let bucket = (self.cycle % self.pending.len() as u64) as usize;
        for (engine_index, thread) in self.pending[bucket].drain(..) {
            let engine = &mut self.engines[engine_index];
            engine.queues[thread.pos & self.mask].push_back(thread.pc);
            engine.queued += 1;
        }
    }

    /// Advance one core by one cycle.
    fn step_core<I: InputRead + ?Sized>(&mut self, e: usize, c: usize, input: &I) {
        // The last live thread may have retired earlier this cycle; the
        // run is over and the remaining cores no longer count stalls.
        if self.live == 0 {
            return;
        }
        let (base, mask, cycle) = (self.base, self.mask, self.cycle);
        let old = self.config.organization == Organization::Old;

        // Split-borrow the engine so the core and the queues are
        // independently mutable.
        let Engine { cores, queues, filter, queued } = &mut self.engines[e];
        let core = &mut cores[c];

        if cycle < core.stall_until {
            self.report.memory_stall_cycles += 1;
            return;
        }
        // The time-multiplexed old core serves every FIFO of its engine;
        // new core `c` serves slot `c` only.
        let poppable = if old { *queued > 0 } else { queues.get(c).is_some_and(|q| !q.is_empty()) };
        if !poppable && core.occupancy() == 0 {
            return;
        }

        // Effects on machine-wide state, applied after the borrows end:
        // at most the split's second target plus one S2 successor, and
        // one finished thread per stage.
        let mut pushes: [Option<(Thread, PushKind)>; 2] = [None; 2];
        let mut retires: [Option<usize>; 2] = [None; 2];
        let mut accepted: Option<(usize, Option<u16>)> = None;
        let trace = &mut self.trace;
        let mut record = |stage: u8, thread: Thread, note: TraceNote| {
            if let Some(events) = trace.as_mut() {
                let Thread { pc, pos } = thread;
                events.push(TraceEvent { cycle, engine: e, core: c, stage, pc, pos, note });
            }
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
                    record(3, slot, TraceNote::SecondTarget(target));
                    pushes[0] = Some((Thread { pc: target, pos: slot.pos }, PushKind::Control));
                    retires[0] = Some(slot.pos);
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
        if let Some(slot) = core.s2.take() {
            let ins = self.program.get(slot.pc).expect("validated program");
            let ch = input.byte_at(slot.pos);
            self.report.instructions += 1;
            // Every outcome but a split and a window-blocked match ends
            // this thread.
            retires[1] = Some(slot.pos);
            match ins {
                Instruction::Split(target) => {
                    record(2, slot, TraceNote::SplitTo(target));
                    forward = Some((Thread { pc: slot.pc + 1, pos: slot.pos }, PushKind::Control));
                    core.s3 = Some(slot);
                    retires[1] = None;
                }
                Instruction::Jump(target) => {
                    record(2, slot, TraceNote::Jumped(target));
                    forward = Some((Thread { pc: target, pos: slot.pos }, PushKind::Control));
                }
                Instruction::Match(_) | Instruction::MatchAny => {
                    let matched = match ins {
                        Instruction::Match(expected) => ch == Some(expected),
                        _ => ch.is_some(),
                    };
                    if !matched {
                        record(2, slot, TraceNote::Killed);
                    } else if slot.pos + 1 > base + mask {
                        // FIFO-slot backpressure: retry until the window
                        // slides.
                        record(2, slot, TraceNote::Requeued);
                        self.report.window_stall_cycles += 1;
                        self.report.instructions -= 1; // not executed
                        pushes[1] = Some((slot, PushKind::Requeue));
                        retires[1] = None;
                    } else {
                        record(2, slot, TraceNote::Matched);
                        forward = Some((
                            Thread { pc: slot.pc + 1, pos: slot.pos + 1 },
                            PushKind::Consume,
                        ));
                    }
                }
                Instruction::NotMatch(unexpected) => {
                    let pass = ch.is_some() && ch != Some(unexpected);
                    record(2, slot, if pass { TraceNote::Matched } else { TraceNote::Killed });
                    if pass {
                        forward =
                            Some((Thread { pc: slot.pc + 1, pos: slot.pos }, PushKind::Control));
                    }
                }
                Instruction::Accept => {
                    if ch.is_none() {
                        accepted = Some((slot.pos, None));
                    }
                    let note = if ch.is_none() { TraceNote::Accepted } else { TraceNote::Killed };
                    record(2, slot, note);
                }
                Instruction::AcceptPartial => {
                    record(2, slot, TraceNote::Accepted);
                    accepted = Some((slot.pos, None));
                }
                Instruction::AcceptPartialId(id) => {
                    record(2, slot, TraceNote::Accepted);
                    accepted = Some((slot.pos, Some(id)));
                }
            }
        }

        // Fill: a forwarded successor goes straight back into S2 (its
        // fetch overlapped with execution — Figure 4 shows dependent
        // instructions in back-to-back S2 slots); popped threads fetch
        // through S1.
        if let Some((thread, kind)) = forward {
            // The time-multiplexed old core owns every FIFO, so any single
            // successor can re-enter its pipeline; a new core's consuming
            // successor belongs to the adjacent core.
            let eligible = old || kind == PushKind::Control;
            // Forward only into an idle pipeline: if S1 holds a fetched
            // thread, bypassing it every cycle would starve the FIFOs (the
            // hardware interleaves FIFO pops with in-flight successors, as
            // Figure 4's old-engine rows show).
            if !eligible || core.s1.is_some() {
                pushes[1] = Some((thread, kind));
            } else if self.config.dedup && !filter.admit(thread.pc, thread.pos) {
                // The duplicate filter still applies: the forwarded thread
                // is part of the engine's Thompson set.
                self.report.deduplicated += 1;
            } else {
                self.counts[thread.pos & mask] += 1;
                self.live += 1;
                self.report.peak_threads = self.report.peak_threads.max(self.live);
                if !core.icache.access(thread.pc) {
                    core.stall_until = cycle + 1 + self.config.cache.miss_penalty;
                }
                core.s2 = Some(thread);
            }
        }
        if poppable && core.s1.is_none() {
            // Every queued thread is live, so each slot holds one position
            // of `[base, base + window)`: the old core takes the oldest
            // non-empty one, new core `c` the one congruent to `c`.
            let pos = if old {
                (base..=base + mask)
                    .find(|pos| !queues[pos & mask].is_empty())
                    .expect("queued threads sit inside the window")
            } else {
                base + (c.wrapping_sub(base) & mask)
            };
            let pc = queues[pos & mask].pop_front().expect("non-empty");
            *queued -= 1;
            if !core.icache.access(pc) {
                core.stall_until = cycle + 1 + self.config.cache.miss_penalty;
            }
            let fetched = Thread { pc, pos };
            record(1, fetched, TraceNote::Fetched);
            core.s1 = Some(fetched);
        }

        for (thread, kind) in pushes.into_iter().flatten() {
            self.route_and_push(e, c, thread, kind);
        }
        for pos in retires.into_iter().flatten() {
            self.retire(pos);
        }
        if let Some((pos, id)) = accepted {
            self.accepted = Some(pos);
            self.matched_id = id;
        }
    }

    /// Decide the destination engine and schedule the push.
    fn route_and_push(&mut self, e: usize, origin_core: usize, thread: Thread, kind: PushKind) {
        let next_engine = (e + 1) % self.engines.len();
        let offered = match self.config.organization {
            // Every novel PC is offered to the distributed balancer.
            Organization::Old => kind != PushKind::Requeue,
            // Only the last core's consuming successors reach the ring.
            Organization::New => {
                kind == PushKind::Consume && origin_core == self.config.cores_per_engine - 1
            }
        };
        let offload = offered
            && self.engines.len() > 1
            && self.loads[e] > self.loads[next_engine] + self.config.lb_threshold;
        if offload {
            self.report.cross_engine_transfers += 1;
            self.push(next_engine, thread, kind, self.cycle + self.config.lb_latency);
        } else {
            self.push(e, thread, kind, self.cycle + 1);
        }
    }

    /// Apply the duplicate filter, account the thread, and schedule its
    /// delivery.
    fn push(&mut self, engine_index: usize, thread: Thread, kind: PushKind, ready_at: u64) {
        if kind != PushKind::Requeue {
            let filter = &mut self.engines[engine_index].filter;
            if self.config.dedup && !filter.admit(thread.pc, thread.pos) {
                self.report.deduplicated += 1;
                return;
            }
            self.counts[thread.pos & self.mask] += 1;
            self.live += 1;
            self.report.peak_threads = self.report.peak_threads.max(self.live);
        }
        let bucket = (ready_at % self.pending.len() as u64) as usize;
        self.pending[bucket].push((engine_index, thread));
    }

    /// A thread finished (killed, jumped away, or consumed a character).
    fn retire(&mut self, pos: usize) {
        debug_assert!(self.counts[pos & self.mask] > 0, "retiring unknown position {pos}");
        self.counts[pos & self.mask] -= 1;
        self.live -= 1;
        // The window slides once the oldest position drains. The scan ends
        // within one window: that is where the remaining live threads are.
        while self.live > 0 && self.counts[self.base & self.mask] == 0 {
            self.base += 1;
        }
    }

    /// Whether any core holds in-flight work (used by tests).
    pub fn pipelines_empty(&self) -> bool {
        self.engines.iter().all(|e| e.cores.iter().all(|core| core.occupancy() == 0))
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
    #[should_panic(expected = "lb_latency must be >= 1")]
    fn a_free_ring_hop_is_rejected() {
        // Zero latency used to mean "delivered next cycle, ahead of every
        // local push": a ring hop faster than a FIFO hop, which no
        // hardware ring is.
        let mut config = ArchConfig::old_organization(4);
        config.lb_latency = 0;
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
        let host_cost = telemetry.histogram("sim.host_ns_per_cycle").unwrap();
        assert_eq!(host_cost.count, 2);
        assert!(host_cost.min > 0.0);
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
