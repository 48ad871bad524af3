//! Per-request resource budgets and the worker loop that enforces them.
//!
//! There is one worker loop, [`Runtime::run_batch_guarded`]'s, and one way
//! to run it: on the calling thread as worker 0, joined by the runtime's
//! persistent helpers while the process runs fewer than `jobs` scan
//! threads, one worker per two inputs (see `pool.rs`). A batch of fewer
//! than four inputs, a one-worker runtime and a batch that arrives while
//! others are in flight run on the caller alone; no batch spawns a thread.
//! Every batch gets the same serving defaults:
//!
//! * **fuel** — a per-input cap on simulated cycles; exhausting it yields
//!   [`MatchOutcome::Budget`] with the partial report instead of letting a
//!   pathological pattern spin to the 200M-cycle architectural limit;
//! * **deadline** — a wall-clock budget for the whole batch; inputs not
//!   started before expiry complete immediately as budget errors;
//! * **panic isolation** — each input runs under `catch_unwind`; a panic
//!   discards the (possibly corrupt) worker session and its simulator
//!   [`Machine`](cicero_sim::Machine), respawns a fresh one, and retries
//!   the input once. The recovery is counted in
//!   [`GuardedBatch::worker_restarts`] and the `runtime.worker_restarts`
//!   telemetry counter; a second panic on the same input reports
//!   [`MatchOutcome::Fault`] and the batch still completes.
//!
//! [`Budget::UNLIMITED`] makes the pool compute exactly what sequential
//! [`simulate_batch`](cicero_sim::simulate_batch) computes, report for
//! report, for every worker count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use cicero_core::{Backend, CompileError};
use cicero_isa::Program;
use cicero_sim::{ArchConfig, ExecReport};

use crate::session::Session;
use crate::Runtime;

/// Resource limits for one request (batch or stream). The default is
/// unlimited on both axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Maximum simulated cycles per input; exceeding it yields
    /// [`MatchOutcome::Budget`] with [`BudgetKind::Fuel`].
    pub fuel: Option<u64>,
    /// Wall-clock budget for the whole request.
    pub deadline: Option<Duration>,
}

impl Budget {
    /// No limits.
    pub const UNLIMITED: Budget = Budget { fuel: None, deadline: None };

    /// Limit each input to `fuel` simulated cycles.
    pub fn with_fuel(fuel: u64) -> Budget {
        Budget { fuel: Some(fuel), ..Budget::default() }
    }

    /// Limit the whole request to `deadline` of wall-clock time.
    pub fn with_deadline(deadline: Duration) -> Budget {
        Budget { deadline: Some(deadline), ..Budget::default() }
    }

    /// This budget with `spent` wall-clock time already charged against
    /// the deadline (saturating at zero; fuel is per input and unchanged).
    /// A request that runs several batches charges each one's elapsed
    /// time, so the deadline bounds the whole request rather than
    /// restarting per batch.
    #[must_use]
    pub fn remaining_after(&self, spent: Duration) -> Budget {
        Budget { deadline: self.deadline.map(|d| d.saturating_sub(spent)), ..*self }
    }

    /// The architecture config actually simulated: `max_cycles` clamped
    /// down to the fuel budget (never raised).
    pub(crate) fn clamp_config(&self, config: &ArchConfig) -> ArchConfig {
        let mut clamped = config.clone();
        if let Some(fuel) = self.fuel {
            clamped.max_cycles = clamped.max_cycles.min(fuel);
        }
        clamped
    }

    /// Classify a report produced under [`Budget::clamp_config`]: hitting
    /// the clamped cycle limit is a fuel exhaustion only when the fuel cap
    /// is tighter than the architecture's own `max_cycles` safety valve.
    pub(crate) fn classify(&self, report: ExecReport, original: &ArchConfig) -> MatchOutcome {
        if report.hit_cycle_limit && self.fuel.is_some_and(|fuel| fuel < original.max_cycles) {
            MatchOutcome::Budget { kind: BudgetKind::Fuel, partial: Some(report) }
        } else {
            MatchOutcome::Complete(report)
        }
    }
}

/// Which budget axis was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// The per-input simulated-cycle cap.
    Fuel,
    /// The wall-clock deadline.
    Deadline,
}

/// The result of one guarded input.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchOutcome {
    /// The run concluded normally.
    Complete(ExecReport),
    /// A budget was exhausted. `partial` carries the progress made before
    /// the cut-off (`None` when the input never started).
    Budget {
        /// The exhausted axis.
        kind: BudgetKind,
        /// Progress up to the cut-off, if the input started.
        partial: Option<ExecReport>,
    },
    /// The input panicked the worker twice; the message is the panic
    /// payload. The rest of the batch is unaffected.
    Fault(String),
}

impl MatchOutcome {
    /// The report, complete or partial (absent for `Fault` and
    /// never-started deadline misses).
    pub fn report(&self) -> Option<&ExecReport> {
        match self {
            MatchOutcome::Complete(report) => Some(report),
            MatchOutcome::Budget { partial, .. } => partial.as_ref(),
            MatchOutcome::Fault(_) => None,
        }
    }

    /// Whether the run concluded normally.
    pub fn is_complete(&self) -> bool {
        matches!(self, MatchOutcome::Complete(_))
    }
}

/// Per-worker accounting for one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Worker index within the batch (0-based). Worker 0 is the calling
    /// thread; helpers are numbered in the order they joined.
    pub worker: usize,
    /// Inputs this worker ran.
    pub inputs: usize,
    /// Simulated cycles across those inputs.
    pub cycles: u64,
    /// Instructions executed across those inputs.
    pub instructions: u64,
    /// Instruction-cache hits across those inputs.
    pub icache_hits: u64,
    /// Instruction-cache misses across those inputs.
    pub icache_misses: u64,
}

impl WorkerStats {
    fn absorb(&mut self, report: &ExecReport) {
        self.inputs += 1;
        self.cycles += report.cycles;
        self.instructions += report.instructions;
        self.icache_hits += report.icache_hits;
        self.icache_misses += report.icache_misses;
    }
}

/// The result of one batch: one outcome per input, plus recovery and
/// budget accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedBatch {
    /// One outcome per input, in input order.
    pub outcomes: Vec<MatchOutcome>,
    /// Per input, in input order: every distinct set identifier that fires
    /// anywhere in the input, ascending. Empty unless the outcome is a
    /// complete match, and for programs without identifiers.
    pub matched_ids: Vec<Vec<u16>>,
    /// Per-worker accounting, in worker order (completed and partial runs
    /// both count).
    pub workers: Vec<WorkerStats>,
    /// Workers that ran the batch: the calling thread plus each helper
    /// that joined it; at least 1 and at most `min(jobs, inputs / 2)`.
    pub jobs: usize,
    /// Workers respawned after a panic (also exported as the
    /// `runtime.worker_restarts` counter).
    pub worker_restarts: u64,
    /// Whether the program came out of the cache.
    pub cache_hit: bool,
    /// Host wall-clock time spent executing the batch.
    pub wall: Duration,
}

impl GuardedBatch {
    /// Inputs that concluded normally.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_complete()).count()
    }

    /// Inputs that concluded normally *and* matched.
    pub fn matches(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, MatchOutcome::Complete(r) if r.accepted))
            .count()
    }

    /// Inputs that exhausted a budget.
    pub fn budget_exceeded(&self) -> usize {
        self.outcomes.iter().filter(|o| matches!(o, MatchOutcome::Budget { .. })).count()
    }

    /// Inputs that faulted (panicked twice).
    pub fn faults(&self) -> usize {
        self.outcomes.iter().filter(|o| matches!(o, MatchOutcome::Fault(_))).count()
    }

    /// For a set of `patterns` members: how many inputs each member
    /// matched in (identifiers outside the set are ignored).
    pub fn per_pattern(&self, patterns: usize) -> Vec<u64> {
        let mut counts = vec![0u64; patterns];
        for &id in self.matched_ids.iter().flatten() {
            if let Some(count) = counts.get_mut(usize::from(id)) {
                *count += 1;
            }
        }
        counts
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_owned()
    }
}

impl Runtime {
    /// Compile `pattern` (through the cache) and run it over every input
    /// with per-request budgets and worker panic isolation.
    ///
    /// # Errors
    ///
    /// Compilation errors only; execution failures are reported per input
    /// in [`GuardedBatch::outcomes`].
    pub fn match_batch_guarded(
        &self,
        pattern: &str,
        inputs: &[Vec<u8>],
        config: &ArchConfig,
        budget: &Budget,
    ) -> Result<GuardedBatch, CompileError> {
        let (program, cache_hit) = self.compile_with_hit(pattern)?;
        let batch = self.run_batch_guarded(&program, inputs, config, budget);
        Ok(GuardedBatch { cache_hit, ..batch })
    }

    /// Run an already-compiled program over every input with budgets and
    /// panic isolation (`cache_hit` is reported as `false`), on this
    /// handle's backend. The calling thread is worker 0, and idle
    /// persistent helpers join while fewer than `jobs` threads scan. Under
    /// [`Runtime::with_trace`] the batch opens an `execute` span with one
    /// `{engine}.worker-N` child per worker, annotated with cycle and
    /// i-cache totals.
    pub fn run_batch_guarded(
        &self,
        program: &Program,
        inputs: &[Vec<u8>],
        config: &ArchConfig,
        budget: &Budget,
    ) -> GuardedBatch {
        // Each worker runs its inputs on one `Session` (the streaming
        // scan's unit). On the host backend every worker shares one
        // immutable lowered engine; the fuel budget becomes a byte budget
        // through the same `max_cycles` clamp the simulator uses.
        let host_program = (self.backend == Backend::Host).then(|| self.host_program(program));
        let start = Instant::now();
        let deadline_at = budget.deadline.map(|d| start + d);
        let run_config = budget.clamp_config(config);
        let exec_span = self.trace_child("execute").inspect(|span| {
            span.annotate("inputs", inputs.len());
            if let Some(host) = &host_program {
                span.annotate("host.tier", host.engine_kind().to_string());
                span.annotate("host.states", host.state_count());
            }
        });
        let hook = self.run_hook.as_ref();
        let backend = self.backend;
        let restarts = AtomicU64::new(0);
        // Host nanoseconds the workers spent running inputs. Summed here
        // and observed by this thread once the batch is done, so the
        // helpers never touch the telemetry collector.
        let run_ns = AtomicU64::new(0);
        // Caller-owned slots: each input's outcome is set once, by the
        // worker that claimed it, and each worker's stats by that worker.
        let slots: Vec<OnceLock<(MatchOutcome, Vec<u16>)>> =
            inputs.iter().map(|_| OnceLock::new()).collect();
        let worker_slots: Vec<OnceLock<WorkerStats>> =
            (0..self.jobs().min(inputs.len()).max(1)).map(|_| OnceLock::new()).collect();

        // One worker: scan the inputs `claim` hands out, each under
        // `catch_unwind` on one `Session`.
        let work = |worker: usize, claim: &mut dyn FnMut() -> Option<usize>| {
            let worker_span = exec_span.as_ref().map(|span| {
                span.context().child_of(Some(span.id()), format!("{backend}.worker-{worker}"))
            });
            // `None` after a panic poisons the session; the next input
            // respawns a fresh one.
            let mut session = None;
            let mut stats = WorkerStats { worker, ..WorkerStats::default() };
            while let Some(index) = claim() {
                let input = &inputs[index];
                // A missed input leaves its slot empty: a deadline miss.
                if deadline_at.is_some_and(|at| Instant::now() >= at) {
                    continue;
                }
                let mut attempts = 0u32;
                let outcome = loop {
                    let s = session.get_or_insert_with(|| {
                        Session::new(program, host_program.as_deref(), run_config.clone())
                    });
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if let Some(hook) = hook {
                            hook(index);
                        }
                        let started = Instant::now();
                        let run = s.run(input);
                        run_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        run
                    }));
                    match result {
                        Ok((report, ids)) => {
                            let outcome = budget.classify(report, config);
                            let ids = if outcome.is_complete() { ids } else { Vec::new() };
                            break (outcome, ids);
                        }
                        Err(payload) => {
                            session = None;
                            restarts.fetch_add(1, Ordering::Relaxed);
                            attempts += 1;
                            if attempts >= 2 {
                                let fault = MatchOutcome::Fault(panic_message(payload.as_ref()));
                                break (fault, Vec::new());
                            }
                        }
                    }
                };
                if let Some(report) = outcome.0.report() {
                    stats.absorb(report);
                }
                let first = slots[index].set(outcome).is_ok();
                debug_assert!(first, "input {index} claimed twice");
            }
            if let Some(span) = worker_span {
                span.annotate("inputs", stats.inputs);
                span.annotate("cycles", stats.cycles);
                span.annotate("instructions", stats.instructions);
                span.annotate("icache_hits", stats.icache_hits);
                span.annotate("icache_misses", stats.icache_misses);
            }
            let first = worker_slots[worker].set(stats).is_ok();
            debug_assert!(first, "worker {worker} ran twice");
        };
        let jobs = self.shared.pool.run(inputs.len(), &work);

        let (outcomes, matched_ids) = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner().unwrap_or_else(|| {
                    (MatchOutcome::Budget { kind: BudgetKind::Deadline, partial: None }, Vec::new())
                })
            })
            .unzip();
        let workers = worker_slots
            .into_iter()
            .take(jobs)
            .map(|slot| slot.into_inner().unwrap_or_default())
            .collect();
        let batch = GuardedBatch {
            outcomes,
            matched_ids,
            workers,
            jobs,
            worker_restarts: restarts.into_inner(),
            cache_hit: false,
            wall: start.elapsed(),
        };
        if let Some(telemetry) = &self.telemetry {
            telemetry.counter_add("runtime.guarded_batches", 1);
            telemetry.counter_add("runtime.inputs", batch.outcomes.len() as u64);
            telemetry.counter_add("runtime.matches", batch.matches() as u64);
            telemetry.counter_add("runtime.worker_restarts", batch.worker_restarts);
            telemetry.counter_add("runtime.budget_exceeded", batch.budget_exceeded() as u64);
            telemetry.counter_add("runtime.faults", batch.faults() as u64);
            // A host run's report counts bytes, not cycles: only simulator
            // runs fold into the sim.* series.
            if self.backend == Backend::Sim {
                for report in batch.outcomes.iter().filter_map(MatchOutcome::report) {
                    report.record_into(telemetry);
                }
                let run_time = Duration::from_nanos(run_ns.into_inner());
                if !run_time.is_zero() {
                    let cycles = batch.workers.iter().map(|w| w.cycles).sum();
                    cicero_sim::stats::record_host_time(telemetry, cycles, run_time);
                }
            }
        }
        if let Some(span) = exec_span {
            span.annotate("jobs", batch.jobs);
            span.annotate("completed", batch.completed());
            span.annotate("matches", batch.matches());
            span.annotate("budget_exceeded", batch.budget_exceeded());
            span.annotate("worker_restarts", batch.worker_restarts);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use cicero_sim::simulate_batch;
    use cicero_telemetry::Telemetry;

    use super::*;
    use crate::{EngineKind, RunHook, RuntimeOptions};

    const PATTERN: &str = "(abcd|bcda|cdab|dabc)";

    fn chunks() -> Vec<Vec<u8>> {
        let mut inputs: Vec<Vec<u8>> = (0..7).map(|i| vec![b'x'; 30 + i]).collect();
        inputs[2] = b"xxxabcdxxx".to_vec();
        inputs[5] = b"bcda".to_vec();
        inputs
    }

    fn runtime(jobs: usize) -> Runtime {
        Runtime::new(RuntimeOptions { jobs, ..RuntimeOptions::default() })
    }

    /// The reference every pool result is held to: one machine, inputs in
    /// order.
    fn sequential(config: &ArchConfig) -> Vec<MatchOutcome> {
        let program = cicero_core::compile(PATTERN).unwrap().into_program();
        simulate_batch(&program, &chunks(), config)
            .into_iter()
            .map(MatchOutcome::Complete)
            .collect()
    }

    /// Suppress the default panic-to-stderr hook for a deliberately
    /// panicking section, so test output stays readable.
    fn quietly<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = f();
        std::panic::set_hook(prev);
        result
    }

    #[test]
    fn unlimited_guarded_batch_equals_the_plain_path() {
        let config = ArchConfig::new_organization(8, 1);
        let plain = sequential(&config);
        for jobs in 1..=5 {
            let guarded = runtime(jobs)
                .match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED)
                .unwrap();
            assert_eq!(guarded.outcomes, plain, "jobs={jobs}");
            assert_eq!(guarded.worker_restarts, 0);
            assert_eq!(guarded.matches(), 2);
        }
    }

    #[test]
    fn fuel_exhaustion_is_a_clean_budget_outcome() {
        // A scanning pattern over a long input needs well over 8 cycles;
        // the fuel budget cuts it off with the partial report attached.
        let config = ArchConfig::old_organization(1);
        let inputs = vec![vec![b'x'; 500]];
        let batch = runtime(1)
            .match_batch_guarded(PATTERN, &inputs, &config, &Budget::with_fuel(8))
            .unwrap();
        match &batch.outcomes[0] {
            MatchOutcome::Budget { kind: BudgetKind::Fuel, partial: Some(report) } => {
                assert_eq!(report.cycles, 8);
                assert!(report.hit_cycle_limit);
                assert!(!report.accepted);
            }
            other => panic!("expected a fuel cut-off, got {other:?}"),
        }
        assert_eq!(batch.budget_exceeded(), 1);
    }

    #[test]
    fn ample_fuel_does_not_change_results() {
        let config = ArchConfig::old_organization(1);
        let guarded = runtime(2)
            .match_batch_guarded(PATTERN, &chunks(), &config, &Budget::with_fuel(1_000_000))
            .unwrap();
        assert_eq!(guarded.outcomes, sequential(&config));
    }

    #[test]
    fn remaining_after_charges_the_deadline_and_saturates_at_zero() {
        let budget = Budget { fuel: Some(7), deadline: Some(Duration::from_millis(50)) };
        let later = budget.remaining_after(Duration::from_millis(20));
        assert_eq!(later, Budget { fuel: Some(7), deadline: Some(Duration::from_millis(30)) });
        let spent = budget.remaining_after(Duration::from_secs(1));
        assert_eq!(spent.deadline, Some(Duration::ZERO), "saturates, never wraps");
        assert_eq!(spent.fuel, Some(7), "fuel is per input, not charged");
        assert_eq!(Budget::UNLIMITED.remaining_after(Duration::from_secs(1)), Budget::UNLIMITED);
        // A fully spent deadline fails every input without running it.
        let batch = runtime(1)
            .match_batch_guarded(PATTERN, &chunks(), &ArchConfig::old_organization(1), &spent)
            .unwrap();
        assert_eq!(batch.budget_exceeded(), chunks().len());
    }

    #[test]
    fn an_expired_deadline_fails_inputs_instead_of_hanging() {
        let config = ArchConfig::old_organization(1);
        let batch = runtime(2)
            .match_batch_guarded(
                PATTERN,
                &chunks(),
                &config,
                &Budget::with_deadline(Duration::ZERO),
            )
            .unwrap();
        assert_eq!(batch.outcomes.len(), chunks().len());
        assert!(
            batch
                .outcomes
                .iter()
                .all(|o| matches!(o, MatchOutcome::Budget { kind: BudgetKind::Deadline, .. })),
            "{:?}",
            batch.outcomes
        );
    }

    #[test]
    fn a_worker_panic_is_recovered_and_the_batch_completes() {
        // The hook panics exactly once, on input 3's first attempt: the
        // worker discards its machine, respawns, retries, and every input
        // still completes with a report identical to the sequential path.
        let config = ArchConfig::new_organization(8, 1);
        let fired = Arc::new(AtomicUsize::new(0));
        let hook = {
            let fired = Arc::clone(&fired);
            Arc::new(move |index: usize| {
                if index == 3 && fired.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("injected fault on input 3");
                }
            })
        };
        let telemetry = Telemetry::new();
        let runtime = runtime(2).with_telemetry(telemetry.clone()).with_run_hook(hook);
        let batch = quietly(|| {
            runtime.match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED).unwrap()
        });
        assert!(batch.worker_restarts >= 1);
        assert_eq!(batch.outcomes, sequential(&config));
        assert!(telemetry.counter("runtime.worker_restarts") >= 1);
    }

    #[test]
    fn a_persistent_panic_faults_only_its_input() {
        // Input 3 panics on every attempt: it faults, everything else
        // completes.
        let config = ArchConfig::old_organization(1);
        let hook = Arc::new(|index: usize| {
            if index == 3 {
                panic!("persistent fault on input 3");
            }
        });
        let runtime = runtime(2).with_run_hook(hook);
        let batch = quietly(|| {
            runtime.match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED).unwrap()
        });
        assert_eq!(batch.faults(), 1);
        assert!(matches!(&batch.outcomes[3], MatchOutcome::Fault(m) if m.contains("input 3")));
        assert_eq!(batch.completed(), chunks().len() - 1);
        assert_eq!(batch.worker_restarts, 2);
    }

    /// A hook that records the thread each input runs on. It holds each
    /// input for 2 ms, so one worker cannot drain a small batch before
    /// another has claimed an input.
    fn thread_recorder() -> (RunHook, Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>) {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let hook: RunHook = {
            let seen = Arc::clone(&seen);
            Arc::new(move |_| {
                seen.lock().unwrap().push(std::thread::current().id());
                std::thread::sleep(Duration::from_millis(2));
            })
        };
        (hook, seen)
    }

    #[test]
    fn a_one_job_batch_runs_on_the_calling_thread() {
        let config = ArchConfig::old_organization(1);
        let caller = std::thread::current().id();
        // One input on a four-worker runtime, then a whole batch on a
        // one-worker runtime: both are one-job batches.
        for (jobs, inputs) in [(4, vec![b"xxabcd".to_vec()]), (1, chunks())] {
            let (hook, seen) = thread_recorder();
            let batch = runtime(jobs)
                .with_run_hook(hook)
                .match_batch_guarded(PATTERN, &inputs, &config, &Budget::UNLIMITED)
                .unwrap();
            assert_eq!(batch.jobs, 1);
            assert_eq!(batch.completed(), inputs.len());
            assert_eq!(*seen.lock().unwrap(), vec![caller; inputs.len()], "jobs={jobs}");
        }
    }

    /// A hook that records the thread each input runs on, and holds
    /// every input (for up to 2 s) until two have entered it: on two
    /// workers each then claims at least one input, however late the
    /// second one wakes.
    fn pair_recorder() -> (RunHook, Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>) {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let hook: RunHook = {
            let seen = Arc::clone(&seen);
            Arc::new(move |_| {
                seen.lock().unwrap().push(std::thread::current().id());
                let until = Instant::now() + Duration::from_secs(2);
                while seen.lock().unwrap().len() < 2 && Instant::now() < until {
                    std::thread::sleep(Duration::from_micros(100));
                }
            })
        };
        (hook, seen)
    }

    /// The distinct threads in `seen`, in first-seen order.
    fn distinct(seen: &[std::thread::ThreadId]) -> Vec<std::thread::ThreadId> {
        let mut threads = Vec::new();
        for id in seen {
            if !threads.contains(id) {
                threads.push(*id);
            }
        }
        threads
    }

    #[test]
    fn consecutive_batches_run_on_the_caller_and_the_same_helper() {
        let config = ArchConfig::old_organization(1);
        let caller = std::thread::current().id();
        let runtime = runtime(2);
        let mut helpers = Vec::new();
        for _ in 0..2 {
            let (hook, seen) = pair_recorder();
            let batch = runtime
                .clone()
                .with_run_hook(hook)
                .match_batch_guarded(PATTERN, &chunks()[..4], &config, &Budget::UNLIMITED)
                .unwrap();
            assert_eq!((batch.jobs, batch.completed()), (2, 4));
            let threads = distinct(&seen.lock().unwrap());
            assert_eq!(threads.len(), 2, "{threads:?}");
            assert!(threads.contains(&caller), "the caller is worker 0: {threads:?}");
            helpers.extend(threads.into_iter().filter(|&id| id != caller));
        }
        assert_eq!(helpers[0], helpers[1], "both batches ran on one persistent helper");
    }

    #[test]
    fn concurrent_batches_never_scan_on_more_than_jobs_threads() {
        // Two 8-input batches at once on two jobs: each caller scans its
        // own inputs, and a helper joins only while fewer than two scan.
        let inside = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let hook: RunHook = {
            let (inside, peak) = (Arc::clone(&inside), Arc::clone(&peak));
            Arc::new(move |_| {
                let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                inside.fetch_sub(1, Ordering::SeqCst);
            })
        };
        let runtime = runtime(2).with_run_hook(hook);
        let config = ArchConfig::old_organization(1);
        let inputs: Vec<Vec<u8>> = (0..8).map(|i| chunks()[i % 7].clone()).collect();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..3 {
                        start.wait();
                        let batch = runtime
                            .match_batch_guarded(PATTERN, &inputs, &config, &Budget::UNLIMITED)
                            .unwrap();
                        assert_eq!(batch.completed(), 8);
                    }
                });
            }
        });
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak <= 2, "{peak} inputs scanned at once");
    }

    #[test]
    fn a_helper_serves_on_after_a_panic_on_its_input() {
        // The helper's first input panics once: the helper rebuilds its
        // session and retries, the restart is counted, and the next batch
        // still runs on that same helper.
        let config = ArchConfig::old_organization(1);
        let caller = std::thread::current().id();
        let telemetry = Telemetry::new();
        let runtime = runtime(2).with_telemetry(telemetry.clone());
        let fired = Arc::new(AtomicUsize::new(0));
        let (record, seen) = pair_recorder();
        let hook: RunHook = {
            let fired = Arc::clone(&fired);
            Arc::new(move |index| {
                record(index);
                if std::thread::current().id() != caller
                    && fired.fetch_add(1, Ordering::SeqCst) == 0
                {
                    panic!("injected fault on a helper");
                }
            })
        };
        let batch = quietly(|| {
            runtime
                .clone()
                .with_run_hook(hook)
                .match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED)
                .unwrap()
        });
        assert_eq!(batch.outcomes, sequential(&config));
        assert_eq!(batch.worker_restarts, 1);
        assert_eq!(telemetry.counter("runtime.worker_restarts"), 1);
        let helper = distinct(&seen.lock().unwrap()).into_iter().find(|&id| id != caller);
        assert!(helper.is_some(), "no helper joined the first batch");

        let (hook, seen) = pair_recorder();
        let next = runtime
            .with_run_hook(hook)
            .match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED)
            .unwrap();
        assert_eq!((next.completed(), next.worker_restarts), (chunks().len(), 0));
        assert!(seen.lock().unwrap().contains(&helper.unwrap()), "the helper stopped serving");
    }

    #[test]
    fn a_faulting_one_job_batch_leaves_the_calling_thread_serving() {
        // The first two attempts panic: the one input of the first batch
        // faults after its retry, on the calling thread, and the same
        // runtime's next batch on this thread completes.
        let config = ArchConfig::old_organization(1);
        let fired = Arc::new(AtomicUsize::new(0));
        let hook = {
            let fired = Arc::clone(&fired);
            Arc::new(move |_| {
                if fired.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("injected fault");
                }
            })
        };
        let telemetry = Telemetry::new();
        let runtime = runtime(1).with_telemetry(telemetry.clone()).with_run_hook(hook);
        let inputs = vec![b"xxabcd".to_vec()];
        let batch = quietly(|| {
            runtime.match_batch_guarded(PATTERN, &inputs, &config, &Budget::UNLIMITED).unwrap()
        });
        assert!(matches!(&batch.outcomes[0], MatchOutcome::Fault(m) if m == "injected fault"));
        assert_eq!(batch.worker_restarts, 2);
        assert_eq!(telemetry.counter("runtime.worker_restarts"), 2);
        let next =
            runtime.match_batch_guarded(PATTERN, &inputs, &config, &Budget::UNLIMITED).unwrap();
        assert_eq!((next.completed(), next.matches(), next.worker_restarts), (1, 1, 0));
    }

    #[test]
    fn worker_stats_cover_completed_work() {
        let config = ArchConfig::old_organization(1);
        let batch = runtime(3)
            .match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED)
            .unwrap();
        assert!(batch.jobs >= 1 && batch.jobs <= 3);
        assert_eq!(batch.workers.len(), batch.jobs);
        assert_eq!(batch.workers.iter().map(|w| w.inputs).sum::<usize>(), chunks().len());
        let outcome_cycles: u64 =
            batch.outcomes.iter().filter_map(|o| o.report().map(|r| r.cycles)).sum();
        assert_eq!(batch.workers.iter().map(|w| w.cycles).sum::<u64>(), outcome_cycles);
    }

    #[test]
    fn a_set_scan_survives_a_worker_panic_with_correct_per_pattern_counts() {
        // A multi-pattern set on the guarded pool: one injected panic on
        // chunk 2's first attempt exercises the respawn path, and the
        // exhaustive per-pattern counts still equal the panic-free run —
        // on either backend's all-matches pass.
        let config = ArchConfig::new_organization(8, 1);
        let patterns = ["abcd", "bcda", "zzz"];
        let chunks = chunks(); // chunk 2 contains "abcd", chunk 5 "bcda"
        let runtime_plain = runtime(2);
        let program = runtime_plain.compile_set(&patterns).unwrap();

        let plain = runtime_plain.run_batch_guarded(&program, &chunks, &config, &Budget::UNLIMITED);
        assert_eq!(plain.completed(), chunks.len());
        let expected = plain.per_pattern(patterns.len());
        assert_eq!(expected, vec![1, 1, 0], "chunk fixtures drifted");

        let fired = Arc::new(AtomicUsize::new(0));
        let hook = {
            let fired = Arc::clone(&fired);
            Arc::new(move |index: usize| {
                if index == 2 && fired.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("injected fault on chunk 2");
                }
            })
        };
        let guarded_runtime = runtime(3).with_run_hook(hook);
        let batch = quietly(|| {
            guarded_runtime.run_batch_guarded(&program, &chunks, &config, &Budget::UNLIMITED)
        });
        assert!(batch.worker_restarts >= 1, "the injected panic must recycle a worker");
        assert_eq!(batch.completed(), chunks.len(), "{:?}", batch.outcomes);
        assert_eq!(batch.per_pattern(patterns.len()), expected);
        let on_host = runtime_plain.with_backend(Backend::Host);
        let host = on_host.run_batch_guarded(&program, &chunks, &config, &Budget::UNLIMITED);
        assert_eq!(host.per_pattern(patterns.len()), expected);
    }

    #[test]
    fn traced_guarded_batch_yields_a_connected_span_tree() {
        use cicero_telemetry::TraceContext;
        let config = ArchConfig::new_organization(8, 1);
        let ctx = TraceContext::new("trace-batch");
        let root = ctx.root_span("request");
        let batch = runtime(3)
            .with_trace(&root)
            .match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED)
            .unwrap();
        drop(root);
        let trace = ctx.finish();

        // compile (with per-pass children) → execute → one span per worker.
        let compile = trace.span("compile").expect("compile span");
        assert!(compile.attrs.iter().any(|(k, v)| k == "cache_hit" && v.to_string() == "false"));
        let passes = trace.spans_with_prefix("pass:");
        assert!(!passes.is_empty(), "cache miss must backfill pass spans");
        assert!(passes.iter().all(|p| p.parent == Some(compile.id)));
        let execute = trace.span("execute").expect("execute span");
        let workers = trace.spans_with_prefix("sim.worker-");
        assert_eq!(workers.len(), batch.jobs);
        for worker in &workers {
            assert_eq!(worker.parent, Some(execute.id));
            for key in ["cycles", "icache_hits", "icache_misses", "inputs"] {
                assert!(
                    worker.attrs.iter().any(|(k, _)| k == key),
                    "worker span missing {key}: {:?}",
                    worker.attrs
                );
            }
        }
        // Connectivity: exactly one root; every parent id resolves.
        assert_eq!(trace.spans.iter().filter(|s| s.parent.is_none()).count(), 1);
        for span in &trace.spans {
            assert!(span.closed, "{} still open", span.name);
            if let Some(parent) = span.parent {
                assert!((parent as usize) < trace.spans.len());
            }
        }

        // A second traced run hits the cache: no pass spans this time.
        let ctx2 = TraceContext::new("trace-batch-2");
        let root2 = ctx2.root_span("request");
        let runtime2 = runtime(2).with_trace(&root2);
        runtime2.match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED).unwrap();
        runtime2.match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED).unwrap();
        drop(root2);
        let trace2 = ctx2.finish();
        let compiles: Vec<_> = trace2.spans.iter().filter(|s| s.name == "compile").collect();
        assert_eq!(compiles.len(), 2);
        assert!(compiles[1].attrs.iter().any(|(k, v)| k == "cache_hit" && v.to_string() == "true"));
    }

    #[test]
    fn host_fuel_caps_the_first_stop_not_the_id_set() {
        // A chunk whose first match ends inside the byte cap completes
        // with every member that matches in it, past the cap too; one
        // whose first match lies past the cap is a limit hit with no ids.
        let config = ArchConfig::new_organization(8, 1);
        let runtime = host_runtime(1);
        let program = runtime.compile_set(&["abcd", "zzz"]).unwrap();
        let chunks = vec![b"abcd....zzz".to_vec(), b"......zzz".to_vec()];
        let batch = runtime.run_batch_guarded(&program, &chunks, &config, &Budget::with_fuel(6));
        assert!(batch.outcomes[0].is_complete(), "{:?}", batch.outcomes[0]);
        assert!(
            matches!(batch.outcomes[1], MatchOutcome::Budget { kind: BudgetKind::Fuel, .. }),
            "{:?}",
            batch.outcomes[1]
        );
        assert_eq!(batch.matched_ids, [vec![0, 1], vec![]]);
        assert_eq!(batch.per_pattern(2), [1, 1]);
    }

    #[test]
    fn a_traced_compile_miss_lowers_under_compile_and_scans_lower_nothing() {
        use crate::StreamOptions;
        use cicero_telemetry::{RequestTrace, TraceContext};
        let config = ArchConfig::new_organization(8, 1);
        let telemetry = Telemetry::new();
        let runtime = host_runtime(1).with_telemetry(telemetry.clone());
        // The trace of one request.
        let traced = |request: &dyn Fn(&Runtime)| -> RequestTrace {
            let ctx = TraceContext::new("trace-lower");
            let root = ctx.root_span("request");
            request(&runtime.with_trace(&root));
            drop(root);
            ctx.finish()
        };
        let lowerings =
            |trace: RequestTrace| trace.spans.iter().filter(|s| s.name == "hostexec.lower").count();

        let patterns = ["abcd", "zzz"];
        let trace = traced(&|r| {
            r.compile_set(&patterns).unwrap();
        });
        let compile = trace.span("compile").expect("compile span");
        let lower = trace.span("hostexec.lower").expect("a compile miss lowers to the host");
        assert_eq!(lower.parent, Some(compile.id), "under the compile span");
        let program = runtime.compile_set(&patterns).unwrap();
        let engine = runtime.host_program(&program);
        assert!(engine.lowering().is_some(), "lowered from regex IR");
        for (key, want) in [
            ("host.tier", engine.engine_kind().to_string()),
            ("host.states", engine.state_count().to_string()),
            ("host.byte_classes", engine.byte_class_count().to_string()),
            ("host.table_bytes", engine.table_bytes().to_string()),
        ] {
            let got = lower.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.to_string());
            assert_eq!(got, Some(want), "{key}");
        }

        // A cache hit, a batch and a stream lower nothing.
        let hit = traced(&|r| {
            r.compile_set(&patterns).unwrap();
        });
        assert_eq!(lowerings(hit), 0, "a cache hit");
        let batch = traced(&|r| {
            r.run_batch_guarded(&program, &chunks(), &config, &Budget::UNLIMITED);
        });
        assert_eq!(lowerings(batch), 0, "a batch");
        let stream = traced(&|r| {
            let input = &b"..abcd..zzz.."[..];
            r.scan_stream(&program, input, &config, &StreamOptions::default()).unwrap();
        });
        assert_eq!(lowerings(stream), 0, "a stream");
        assert_eq!(telemetry.counter("runtime.isa_lowerings"), 0);

        // A program the runtime did not compile has no IR: each batch
        // un-lowers its ISA under its own span, and counts it.
        let foreign = cicero_core::compile("ab|cd").unwrap().into_program();
        let batch = traced(&|r| {
            r.run_batch_guarded(&foreign, &chunks(), &config, &Budget::UNLIMITED);
        });
        assert_eq!(lowerings(batch), 1);
        assert_eq!(runtime.host_program(&foreign).lowering(), None);
        assert_eq!(telemetry.counter("runtime.isa_lowerings"), 2);
    }

    #[test]
    fn a_traced_host_batch_names_its_engine_tier_and_states() {
        use cicero_telemetry::TraceContext;
        let config = ArchConfig::new_organization(8, 1);
        let runtime = host_runtime(2);
        let program = runtime.compile(PATTERN).unwrap();
        let lowered = runtime.host_program(&program);
        for backend in [Backend::Host, Backend::Sim] {
            let ctx = TraceContext::new("trace-host");
            let root = ctx.root_span("request");
            let traced = runtime.with_backend(backend).with_trace(&root);
            traced.run_batch_guarded(&program, &chunks(), &config, &Budget::UNLIMITED);
            drop(root);
            let trace = ctx.finish();
            let execute = trace.span("execute").expect("execute span");
            let attr = |key: &str| {
                execute.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.to_string())
            };
            let (tier, states) = match backend {
                Backend::Host => (
                    Some(lowered.engine_kind().to_string()),
                    Some(lowered.state_count().to_string()),
                ),
                Backend::Sim => (None, None),
            };
            assert_eq!(attr("host.tier"), tier, "{backend}");
            assert_eq!(attr("host.states"), states, "{backend}");
        }
        assert_eq!(lowered.engine_kind(), EngineKind::BitWide);
    }

    fn host_runtime(jobs: usize) -> Runtime {
        let compiler = cicero_core::CompilerOptions::optimized().with_backend(Backend::Host);
        Runtime::new(RuntimeOptions { jobs, compiler })
    }

    #[test]
    fn host_backend_agrees_with_sim_verdicts_and_positions() {
        let config = ArchConfig::new_organization(8, 1);
        let sim = runtime(2)
            .match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED)
            .unwrap();
        let host = host_runtime(2)
            .match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED)
            .unwrap();
        assert_eq!(host.outcomes.len(), sim.outcomes.len());
        for (h, s) in host.outcomes.iter().zip(&sim.outcomes) {
            let (h, s) = (h.report().unwrap(), s.report().unwrap());
            assert_eq!(h.accepted, s.accepted);
            assert_eq!(h.match_position, s.match_position);
        }
        assert_eq!(host.matches(), sim.matches());
    }

    #[test]
    fn host_fuel_is_a_byte_budget() {
        // 500 non-matching bytes under 8 bytes of fuel: the host engine
        // stops after 8 bytes and reports a clean fuel cut-off, exactly
        // like the sim path's 8-cycle cut-off.
        let config = ArchConfig::old_organization(1);
        let inputs = vec![vec![b'x'; 500]];
        let batch = host_runtime(1)
            .match_batch_guarded(PATTERN, &inputs, &config, &Budget::with_fuel(8))
            .unwrap();
        match &batch.outcomes[0] {
            MatchOutcome::Budget { kind: BudgetKind::Fuel, partial: Some(report) } => {
                assert_eq!(report.cycles, 8, "host cycles mean bytes examined");
                assert!(report.hit_cycle_limit);
                assert!(!report.accepted);
            }
            other => panic!("expected a fuel cut-off, got {other:?}"),
        }
        // A match inside the budget completes despite tight fuel, also on
        // the one worker whose session the previous input cut off.
        let inputs = vec![vec![b'x'; 500], b"abcdxxxx".to_vec()];
        let batch = host_runtime(1)
            .match_batch_guarded(PATTERN, &inputs, &config, &Budget::with_fuel(8))
            .unwrap();
        assert!(matches!(&batch.outcomes[0], MatchOutcome::Budget { kind: BudgetKind::Fuel, .. }));
        assert!(matches!(&batch.outcomes[1], MatchOutcome::Complete(r) if r.accepted));
    }

    #[test]
    fn explicit_backend_overrides_the_runtime_default() {
        // A sim-default runtime can serve a host request and vice versa,
        // with identical verdicts from the shared program cache entry.
        let config = ArchConfig::old_organization(1);
        let sim_runtime = runtime(1);
        let via_host = sim_runtime
            .with_backend(Backend::Host)
            .match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED)
            .unwrap();
        assert_eq!(via_host.matches(), 2);
        // Second call on the other backend hits the same cache entry.
        let via_sim = sim_runtime
            .match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED)
            .unwrap();
        assert!(via_sim.cache_hit, "backends must share one program cache entry");
        assert_eq!(via_sim.matches(), 2);
    }

    #[test]
    fn host_worker_panic_isolation_still_works() {
        // The injected hook panic exercises the host path's catch_unwind:
        // one retry succeeds and the batch completes.
        let config = ArchConfig::old_organization(1);
        let fired = Arc::new(AtomicUsize::new(0));
        let hook = {
            let fired = Arc::clone(&fired);
            Arc::new(move |index: usize| {
                if index == 3 && fired.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("injected fault on input 3");
                }
            })
        };
        let runtime = host_runtime(2).with_run_hook(hook);
        let batch = quietly(|| {
            runtime.match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED).unwrap()
        });
        assert!(batch.worker_restarts >= 1);
        assert_eq!(batch.completed(), chunks().len(), "{:?}", batch.outcomes);
    }

    #[test]
    fn guarded_batch_handles_degenerate_shapes() {
        let config = ArchConfig::old_organization(1);
        let batch =
            runtime(4).match_batch_guarded(PATTERN, &[], &config, &Budget::UNLIMITED).unwrap();
        assert!(batch.outcomes.is_empty());
        assert_eq!(batch.worker_restarts, 0);
        // More workers than inputs: the pool shrinks to the batch.
        let one = runtime(8)
            .match_batch_guarded(PATTERN, &[b"abcd".to_vec()], &config, &Budget::UNLIMITED)
            .unwrap();
        assert_eq!((one.jobs, one.matches()), (1, 1));
    }
}
