//! `cicero-permute` — a deterministic interleaving explorer for the
//! repo's mutex/condvar/channel protocols.
//!
//! The server's connection threads and drain, the panic-respawn path and
//! the runtime's batch pool are small hand-rolled concurrent protocols.
//! Unit tests run them under whatever schedule the OS happens to pick;
//! a latent race can hide for thousands of runs and then ship. This
//! crate takes the loom approach — *enumerate* the schedules instead of
//! sampling them — scaled down to what the repo needs:
//!
//! * A protocol is written as a [`Model`]: shared state plus a set of
//!   logical threads, each advancing through **atomic steps** (one step
//!   ≈ one lock-protected region, channel operation, or atomic RMW in
//!   the real code).
//! * The [`Explorer`] runs the model under *every* interleaving of those
//!   steps, depth-first with replay: each execution deterministically
//!   re-runs a schedule prefix, extends it, and backtracks through the
//!   last scheduling decision with an unexplored branch. This is
//!   exhaustive for the bounded models we write (hundreds to hundreds of
//!   thousands of schedules, milliseconds to seconds).
//! * After every step an invariant is checked; when all threads finish,
//!   a postcondition is checked; a state where some thread is unfinished
//!   but nothing can run is reported as a deadlock. Any violation comes
//!   back with the exact schedule (a list of thread ids) that produced
//!   it, which [`replay`] can re-execute for debugging.
//!
//! Models must be **deterministic**: no wall-clock time, no OS
//! randomness — given the same schedule prefix they must reach the same
//! state, or replay-based backtracking silently explores the wrong tree
//! (the explorer cross-checks by re-validating branch widths during
//! replay and panics on divergence).
//!
//! The protocol models themselves live in [`models`]; the tests in
//! `tests/protocols.rs` run each one exhaustively and also demonstrate
//! that the explorer *finds* the bugs each protocol is built to avoid
//! (a drain reported while a request is served, a drain dropping a
//! written request, panics losing inputs, a caller returning while a
//! helper still holds its batch) when the protocol is
//! deliberately mis-ordered.

pub mod models;

/// What one atomic step of a model thread did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The thread advanced and has more steps to take.
    Progress,
    /// The thread finished; it will never be scheduled again.
    Done,
}

/// A concurrency protocol under test.
pub trait Model {
    /// Shared state mutated by the threads. `Debug` so violations can
    /// carry a snapshot.
    type State: std::fmt::Debug;

    /// Display name (used in violation messages).
    fn name(&self) -> &'static str;

    /// Number of logical threads (fixed for the whole exploration).
    fn threads(&self) -> usize;

    /// A fresh initial state.
    fn init(&self) -> Self::State;

    /// Whether thread `tid` can take a step in `state`. Return `false`
    /// to model blocking (a condvar wait, a `recv` on an empty channel,
    /// a full bounded send). A thread whose every dependency is met must
    /// return `true`, or the explorer will report a spurious deadlock.
    fn enabled(&self, state: &Self::State, tid: usize) -> bool;

    /// Execute one atomic step of thread `tid`. Only called when
    /// [`Model::enabled`] returned `true` for `tid`.
    fn step(&self, state: &mut Self::State, tid: usize) -> Step;

    /// Checked after every step of every execution.
    fn invariant(&self, _state: &Self::State) -> Result<(), String> {
        Ok(())
    }

    /// Checked once all threads are done.
    fn check(&self, state: &Self::State) -> Result<(), String>;
}

/// Why an exploration failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// Some thread never finished and no thread is enabled.
    Deadlock,
    /// [`Model::invariant`] failed mid-execution.
    Invariant,
    /// [`Model::check`] failed after all threads finished.
    Postcondition,
    /// One execution exceeded the step bound (livelock guard).
    Livelock,
    /// The schedule bound was hit before the space was exhausted.
    Exhausted,
}

/// A failed exploration: the kind, the message from the model, the
/// schedule (thread ids, in execution order) that produced it, and a
/// debug snapshot of the failing state.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What failed.
    pub kind: ViolationKind,
    /// The model's message (or a description of the deadlock).
    pub message: String,
    /// Thread ids in the order they were stepped. Feed to [`replay`].
    pub schedule: Vec<usize>,
    /// `Debug` snapshot of the state at the failure point.
    pub state: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?}: {} (schedule {:?}, state {})",
            self.kind, self.message, self.schedule, self.state
        )
    }
}

/// Summary of a completed (violation-free) exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exploration {
    /// Distinct schedules executed.
    pub schedules: u64,
    /// Longest execution, in steps.
    pub max_depth: usize,
}

/// Exhaustive DFS over a model's schedules.
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    /// Abort with [`ViolationKind::Exhausted`] past this many schedules.
    pub max_schedules: u64,
    /// Abort one execution with [`ViolationKind::Livelock`] past this
    /// many steps.
    pub max_steps: usize,
}

impl Default for Explorer {
    fn default() -> Explorer {
        Explorer { max_schedules: 2_000_000, max_steps: 10_000 }
    }
}

impl Explorer {
    /// Run `model` under every schedule.
    ///
    /// # Errors
    ///
    /// The first [`Violation`] found, with its reproducing schedule.
    ///
    /// # Panics
    ///
    /// Panics if the model is non-deterministic (a replayed prefix
    /// yields a different branch width than it did originally).
    pub fn explore<M: Model>(&self, model: &M) -> Result<Exploration, Violation> {
        let threads = model.threads();
        assert!(threads > 0, "a model needs at least one thread");
        // DFS stack: choices[d] is the index into the runnable set taken
        // at depth d; widths[d] is how many runnable threads there were.
        let mut choices: Vec<usize> = Vec::new();
        let mut widths: Vec<usize> = Vec::new();
        let mut schedules: u64 = 0;
        let mut max_depth = 0usize;

        loop {
            schedules += 1;
            if schedules > self.max_schedules {
                return Err(Violation {
                    kind: ViolationKind::Exhausted,
                    message: format!(
                        "{}: schedule bound {} hit before the space was exhausted",
                        model.name(),
                        self.max_schedules
                    ),
                    schedule: Vec::new(),
                    state: String::new(),
                });
            }

            // One execution: replay the prefix in `choices`, extending
            // with first-runnable at each new depth.
            let mut state = model.init();
            let mut done = vec![false; threads];
            let mut trace: Vec<usize> = Vec::with_capacity(choices.len() + 8);
            let mut depth = 0usize;
            let outcome: Option<(ViolationKind, String)> = loop {
                let runnable: Vec<usize> =
                    (0..threads).filter(|&t| !done[t] && model.enabled(&state, t)).collect();
                if runnable.is_empty() {
                    if done.iter().all(|d| *d) {
                        break model.check(&state).err().map(|m| (ViolationKind::Postcondition, m));
                    }
                    let stuck: Vec<usize> = (0..threads).filter(|&t| !done[t]).collect();
                    break Some((
                        ViolationKind::Deadlock,
                        format!("{}: threads {stuck:?} blocked forever", model.name()),
                    ));
                }
                if depth >= self.max_steps {
                    break Some((
                        ViolationKind::Livelock,
                        format!("{}: execution exceeded {} steps", model.name(), self.max_steps),
                    ));
                }
                let choice = if depth < choices.len() {
                    assert_eq!(
                        widths[depth],
                        runnable.len(),
                        "{}: non-deterministic model (branch width changed on replay at depth \
                         {depth})",
                        model.name()
                    );
                    choices[depth]
                } else {
                    choices.push(0);
                    widths.push(runnable.len());
                    0
                };
                let tid = runnable[choice];
                trace.push(tid);
                if model.step(&mut state, tid) == Step::Done {
                    done[tid] = true;
                }
                if let Err(message) = model.invariant(&state) {
                    break Some((ViolationKind::Invariant, message));
                }
                depth += 1;
            };

            if let Some((kind, message)) = outcome {
                return Err(Violation {
                    kind,
                    message,
                    schedule: trace,
                    state: format!("{state:?}"),
                });
            }
            max_depth = max_depth.max(depth);

            // Backtrack to the deepest decision with an unexplored
            // branch; exploration is complete when none remains.
            loop {
                let (Some(choice), Some(width)) = (choices.pop(), widths.pop()) else {
                    return Ok(Exploration { schedules, max_depth });
                };
                if choice + 1 < width {
                    choices.push(choice + 1);
                    widths.push(width);
                    break;
                }
            }
        }
    }
}

/// Re-execute one explicit schedule (as reported in
/// [`Violation::schedule`]) and return the final state plus the model's
/// verdicts along the way. Steps a thread only if it is enabled and not
/// done; stops at the first refusal or when the schedule is spent.
pub fn replay<M: Model>(model: &M, schedule: &[usize]) -> (M::State, Result<(), String>) {
    let mut state = model.init();
    let mut done = vec![false; model.threads()];
    for &tid in schedule {
        if tid >= done.len() || done[tid] || !model.enabled(&state, tid) {
            return (state, Err(format!("thread {tid} cannot be scheduled here")));
        }
        if model.step(&mut state, tid) == Step::Done {
            done[tid] = true;
        }
        if let Err(message) = model.invariant(&state) {
            return (state, Err(message));
        }
    }
    if done.iter().all(|d| *d) {
        let verdict = model.check(&state);
        (state, verdict)
    } else {
        (state, Ok(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads each increment a "shared counter" twice, non-atomically
    /// (read step, then write step). The classic lost-update race: with
    /// torn read/write steps the final count can be < 4.
    struct LostUpdate {
        atomic: bool,
    }

    #[derive(Debug)]
    struct LostUpdateState {
        counter: u32,
        /// Per-thread: (increments left, staged read if mid-update).
        threads: Vec<(u32, Option<u32>)>,
    }

    impl Model for LostUpdate {
        type State = LostUpdateState;

        fn name(&self) -> &'static str {
            "lost-update"
        }

        fn threads(&self) -> usize {
            2
        }

        fn init(&self) -> LostUpdateState {
            LostUpdateState { counter: 0, threads: vec![(2, None); 2] }
        }

        fn enabled(&self, state: &Self::State, tid: usize) -> bool {
            state.threads[tid].0 > 0 || state.threads[tid].1.is_some()
        }

        fn step(&self, state: &mut Self::State, tid: usize) -> Step {
            if self.atomic {
                state.counter += 1;
                state.threads[tid].0 -= 1;
            } else {
                match state.threads[tid].1.take() {
                    None => state.threads[tid].1 = Some(state.counter),
                    Some(read) => {
                        state.counter = read + 1;
                        state.threads[tid].0 -= 1;
                    }
                }
            }
            if state.threads[tid].0 == 0 && state.threads[tid].1.is_none() {
                Step::Done
            } else {
                Step::Progress
            }
        }

        fn check(&self, state: &Self::State) -> Result<(), String> {
            if state.counter == 4 {
                Ok(())
            } else {
                Err(format!("lost update: counter == {} != 4", state.counter))
            }
        }
    }

    #[test]
    fn atomic_increments_pass_every_interleaving() {
        let report = Explorer::default().explore(&LostUpdate { atomic: true }).unwrap();
        // 2 threads × 2 steps each = C(4,2) = 6 interleavings.
        assert_eq!(report.schedules, 6);
        assert_eq!(report.max_depth, 4);
    }

    #[test]
    fn torn_increments_are_caught_with_a_reproducing_schedule() {
        let violation = Explorer::default().explore(&LostUpdate { atomic: false }).unwrap_err();
        assert_eq!(violation.kind, ViolationKind::Postcondition);
        assert!(violation.message.contains("lost update"), "{violation}");
        // The reported schedule reproduces the failure exactly.
        let (state, verdict) = replay(&LostUpdate { atomic: false }, &violation.schedule);
        assert!(verdict.is_err(), "replay must reproduce: {state:?}");
    }

    /// A thread that blocks forever (enabled() false once its partner is
    /// done) is reported as a deadlock, not an infinite loop.
    struct Stuck;

    impl Model for Stuck {
        type State = bool; // partner done?

        fn name(&self) -> &'static str {
            "stuck"
        }

        fn threads(&self) -> usize {
            2
        }

        fn init(&self) -> bool {
            false
        }

        fn enabled(&self, _partner_done: &bool, tid: usize) -> bool {
            // Thread 1 waits for a signal thread 0 never sends.
            tid == 0
        }

        fn step(&self, partner_done: &mut bool, _tid: usize) -> Step {
            *partner_done = true;
            Step::Done
        }

        fn check(&self, _state: &bool) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn blocked_threads_surface_as_deadlocks() {
        let violation = Explorer::default().explore(&Stuck).unwrap_err();
        assert_eq!(violation.kind, ViolationKind::Deadlock);
        assert!(violation.message.contains("[1]"), "{violation}");
    }

    #[test]
    fn the_schedule_bound_reports_exhaustion_not_a_hang() {
        let tight = Explorer { max_schedules: 2, ..Explorer::default() };
        let violation = tight.explore(&LostUpdate { atomic: true }).unwrap_err();
        assert_eq!(violation.kind, ViolationKind::Exhausted);
    }
}
