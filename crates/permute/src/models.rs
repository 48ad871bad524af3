//! Models of the repo's load-bearing concurrency protocols, in the
//! shape the [`crate::Explorer`] can exhaust.
//!
//! Each model mirrors one real protocol step-for-step at the
//! granularity of its atomic operations (one lock-protected region,
//! channel op, or atomic RMW per [`crate::Model::step`]):
//!
//! * [`ConnectionModel`] — the server's thread per admitted connection
//!   (`cicero-server`): the acceptor counts a connection in `open`
//!   before spawning its thread (or answers 503 at the cap); the
//!   connection thread reads requests, holding one of `workers` permits
//!   only while it handles and answers one; a drain trigger sets the
//!   flag; `run` waits for `open == 0` and reports drained. A connection
//!   closes on drain only after a read that began after it saw the flag
//!   times out idle. The `count_in_thread` flag re-creates counting the
//!   connection inside its own thread (the drain wait can see 0 while a
//!   request is still served); `close_on_current_flag` re-creates
//!   closing on the flag after a read that began before it (a written
//!   request is dropped).
//! * [`RespawnModel`] — the guarded set-scan from `cicero-runtime`'s
//!   budget module: workers pull input indices off a shared atomic
//!   counter, run them on a per-worker machine, and on a panic respawn
//!   the machine and retry the same input once before recording a
//!   fault. The `lose_input_on_panic` flag re-creates the pre-guard
//!   behaviour where a panic abandoned the in-flight input entirely.
//! * [`PoolModel`] — the runtime's persistent batch pool (`pool.rs`): each
//!   caller counts in as a scan thread, waits while helpers hold slots
//!   past `jobs`, posts `min(inputs / 2, jobs) − callers` tickets and scans its
//!   own batch with the respawn guard above; a helper takes a ticket, joins
//!   only while fewer than `jobs` threads scan, takes its slot again
//!   between inputs, and finishes the ticket; the caller then revokes its
//!   queued tickets and waits for the taken ones. It checks each input is
//!   recorded once with the right outcome, every restart is counted, at
//!   most `jobs` threads scan while a helper does, and no helper holds or
//!   touches a batch after its caller returned. The `caller_returns_early`
//!   flag re-creates a caller that returns after its own share.

use crate::{Model, Step};

// ---------------------------------------------------------------------------
// Connection: a thread per admitted connection, work permits, drain.
// ---------------------------------------------------------------------------

/// See module docs. Thread 0 is the acceptor; threads `1..=n` are the
/// connection threads of the `n` arriving connections (one that is
/// turned away never runs, and retires in one no-op step); thread
/// `n + 1` is the drain trigger and thread `n + 2` is `run`'s drain wait.
#[derive(Debug, Clone)]
pub struct ConnectionModel {
    /// Arriving connections, in accept order; `true` means its client
    /// writes a request before the drain begins.
    pub requests: Vec<bool>,
    /// Work permits.
    pub workers: usize,
    /// Open-connection cap (the server's `workers + QUEUE_DEPTH`).
    pub capacity: usize,
    /// Idle read timeouts each connection may take before the drain flag
    /// is set. Bounds the exploration; once the flag is set, timeouts
    /// are free.
    pub idle_ticks: usize,
    /// Buggy variant: the connection thread counts itself in `open`, as
    /// its first step, instead of the acceptor counting it before the
    /// spawn.
    pub count_in_thread: bool,
    /// Buggy variant: on an idle timeout, close if the flag is set *now*,
    /// instead of only if it was set when the read began.
    pub close_on_current_flag: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnPc {
    /// Not spawned (yet, or ever: see `turned_away`).
    Unspawned,
    /// Buggy variant: count this connection in `open`.
    Count,
    /// Snapshot the drain flag; a read begins.
    ReadBegin,
    /// The read ends: with the written request, or in an idle timeout.
    Read { saw_flag: bool },
    /// Buggy variant: after an idle timeout, look at the flag as it is now.
    CheckFlag,
    /// Wait for a work permit.
    Acquire,
    /// Handle and answer the request, then return the permit.
    Serve,
}

/// Shared state of the connection protocol.
#[derive(Debug)]
pub struct ConnectionState {
    /// The `open` count; `i64` so an underflow is visible.
    open: i64,
    free_permits: usize,
    in_flight: usize,
    draining: bool,
    drained: bool,
    /// The next connection the acceptor takes.
    next: usize,
    acceptor_done: bool,
    written: Vec<bool>,
    read: Vec<bool>,
    answered: Vec<u32>,
    /// Answered `503`, or never accepted because the drain closed the
    /// listener.
    turned_away: Vec<bool>,
    /// Per connection thread: where it is, and its idle timeouts left.
    conns: Vec<(ConnPc, usize)>,
}

impl ConnectionModel {
    fn trigger(&self) -> usize {
        self.requests.len() + 1
    }
}

impl Model for ConnectionModel {
    type State = ConnectionState;

    fn name(&self) -> &'static str {
        "connection"
    }

    fn threads(&self) -> usize {
        self.requests.len() + 3
    }

    fn init(&self) -> ConnectionState {
        let n = self.requests.len();
        ConnectionState {
            open: 0,
            free_permits: self.workers,
            in_flight: 0,
            draining: false,
            drained: false,
            next: 0,
            acceptor_done: false,
            written: vec![false; n],
            read: vec![false; n],
            answered: vec![0; n],
            turned_away: vec![false; n],
            conns: vec![(ConnPc::Unspawned, self.idle_ticks); n],
        }
    }

    fn enabled(&self, state: &ConnectionState, tid: usize) -> bool {
        let n = self.requests.len();
        if tid == 0 {
            // Blocked in `accept` once every client has connected, until
            // the drain's wake connection arrives.
            return state.next < n || state.draining;
        }
        if tid == self.trigger() {
            return true;
        }
        if tid == self.trigger() + 1 {
            return state.acceptor_done && state.open == 0;
        }
        let (i, (pc, ticks)) = (tid - 1, state.conns[tid - 1]);
        match pc {
            ConnPc::Unspawned => state.turned_away[i],
            ConnPc::Read { .. } => {
                (state.written[i] && !state.read[i]) || state.draining || ticks > 0
            }
            ConnPc::Acquire => state.free_permits > 0,
            _ => true,
        }
    }

    fn step(&self, state: &mut ConnectionState, tid: usize) -> Step {
        let n = self.requests.len();
        if tid == 0 {
            if state.draining {
                // The wake connection: stop accepting, close the listener.
                for i in state.next..n {
                    state.turned_away[i] = true;
                }
                state.acceptor_done = true;
                return Step::Done;
            }
            let i = state.next;
            state.next += 1;
            if state.open >= self.capacity as i64 {
                state.turned_away[i] = true;
            } else if self.count_in_thread {
                state.conns[i].0 = ConnPc::Count;
            } else {
                state.open += 1;
                state.conns[i].0 = ConnPc::ReadBegin;
            }
            return Step::Progress;
        }
        if tid == self.trigger() {
            // The clients write their requests in one step (writes to
            // different connections commute); the drain begins after.
            if state.written.iter().any(|&w| w) || !self.requests.contains(&true) {
                state.draining = true;
                return Step::Done;
            }
            state.written.copy_from_slice(&self.requests);
            return Step::Progress;
        }
        if tid == self.trigger() + 1 {
            state.drained = true;
            return Step::Done;
        }

        let i = tid - 1;
        let close = |state: &mut ConnectionState| {
            state.open -= 1;
            Step::Done
        };
        let (pc, ticks) = state.conns[i];
        state.conns[i].0 = match pc {
            ConnPc::Unspawned => return Step::Done,
            ConnPc::Count => {
                state.open += 1;
                ConnPc::ReadBegin
            }
            ConnPc::ReadBegin => ConnPc::Read { saw_flag: state.draining },
            ConnPc::Read { .. } if state.written[i] && !state.read[i] => {
                state.read[i] = true;
                ConnPc::Acquire
            }
            ConnPc::Read { saw_flag } => {
                if !state.draining {
                    state.conns[i].1 = ticks - 1;
                }
                if self.close_on_current_flag {
                    ConnPc::CheckFlag
                } else if saw_flag {
                    return close(state);
                } else {
                    // The next read begins at once (its snapshot commutes
                    // with every step but the flag's).
                    ConnPc::Read { saw_flag: state.draining }
                }
            }
            ConnPc::CheckFlag if state.draining => return close(state),
            ConnPc::CheckFlag => ConnPc::ReadBegin,
            ConnPc::Acquire => {
                state.free_permits -= 1;
                state.in_flight += 1;
                ConnPc::Serve
            }
            ConnPc::Serve => {
                state.answered[i] += 1;
                state.in_flight -= 1;
                state.free_permits += 1;
                // A response written while draining says close.
                if state.draining {
                    return close(state);
                }
                // The next read begins before the flag.
                ConnPc::Read { saw_flag: false }
            }
        };
        Step::Progress
    }

    fn invariant(&self, state: &ConnectionState) -> Result<(), String> {
        if state.in_flight > self.workers {
            return Err(format!(
                "{} requests in flight, {} workers",
                state.in_flight, self.workers
            ));
        }
        if state.open < 0 || state.open > self.capacity as i64 {
            return Err(format!("open is {}, capacity {}", state.open, self.capacity));
        }
        if state.drained && (state.open > 0 || state.in_flight > 0) {
            return Err(format!(
                "drained reported with {} connections open and {} requests in flight",
                state.open, state.in_flight
            ));
        }
        Ok(())
    }

    fn check(&self, state: &ConnectionState) -> Result<(), String> {
        for (i, &request) in self.requests.iter().enumerate() {
            let expected = u32::from(request && !state.turned_away[i]);
            if state.answered[i] != expected {
                return Err(format!(
                    "connection {i}: request written {request}, turned away {}, answered {} \
                     times (a written request was dropped)",
                    state.turned_away[i], state.answered[i]
                ));
            }
        }
        if !state.drained || state.free_permits != self.workers {
            return Err(format!(
                "settled with drained {} and {} of {} permits free",
                state.drained, state.free_permits, self.workers
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Respawn: panic → machine respawn → bounded retry during a set scan.
// ---------------------------------------------------------------------------

/// Attempt cap before an input is recorded as a fault instead of
/// retried — mirrors `MAX_ATTEMPTS` in the runtime's guarded batch.
pub const RESPAWN_MAX_ATTEMPTS: usize = 2;

/// See module docs. All threads are scan workers.
#[derive(Debug, Clone)]
pub struct RespawnModel {
    /// Per input: how many attempts panic before one succeeds.
    /// `0` = clean, `1` = panics once then matches,
    /// `>= RESPAWN_MAX_ATTEMPTS` = faults.
    pub panics: Vec<usize>,
    /// Scan worker threads.
    pub workers: usize,
    /// Re-create the unguarded behaviour: a panic abandons the in-flight
    /// input instead of respawning and retrying.
    pub lose_input_on_panic: bool,
}

/// Final disposition of one scanned input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOutcome {
    /// The machine ran it to completion.
    Completed,
    /// It panicked [`RESPAWN_MAX_ATTEMPTS`] times and was written off.
    Fault,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScanPc {
    /// `fetch_add` the shared index.
    Fetch,
    /// Lazily (re)spawn the per-worker machine.
    Ensure,
    /// Run the current input on the machine.
    Run,
}

#[derive(Debug, Clone, Copy)]
struct ScanWorker {
    pc: ScanPc,
    machine_alive: bool,
    current: Option<(usize, usize)>, // (input index, attempts so far)
}

/// Shared state of the respawn protocol.
#[derive(Debug)]
pub struct RespawnState {
    next: usize,
    outcomes: Vec<Option<ScanOutcome>>,
    restarts: usize,
    workers: Vec<ScanWorker>,
    double_write: Option<usize>,
}

impl RespawnState {
    fn record(&mut self, input: usize, outcome: ScanOutcome) {
        if self.outcomes[input].is_some() {
            self.double_write = Some(input);
        }
        self.outcomes[input] = Some(outcome);
    }
}

impl Model for RespawnModel {
    type State = RespawnState;

    fn name(&self) -> &'static str {
        "respawn"
    }

    fn threads(&self) -> usize {
        self.workers
    }

    fn init(&self) -> RespawnState {
        RespawnState {
            next: 0,
            outcomes: vec![None; self.panics.len()],
            restarts: 0,
            workers: vec![
                ScanWorker { pc: ScanPc::Fetch, machine_alive: true, current: None };
                self.workers
            ],
            double_write: None,
        }
    }

    fn enabled(&self, _state: &RespawnState, _tid: usize) -> bool {
        true
    }

    fn step(&self, state: &mut RespawnState, tid: usize) -> Step {
        let mut worker = state.workers[tid];
        let step = match worker.pc {
            ScanPc::Fetch => {
                let index = state.next;
                state.next += 1;
                if index >= self.panics.len() {
                    Step::Done
                } else {
                    worker.current = Some((index, 0));
                    worker.pc = ScanPc::Ensure;
                    Step::Progress
                }
            }
            ScanPc::Ensure => {
                worker.machine_alive = true;
                worker.pc = ScanPc::Run;
                Step::Progress
            }
            ScanPc::Run => {
                let (input, attempts) = worker.current.expect("run step without an input");
                debug_assert!(worker.machine_alive, "ran on a dead machine");
                if attempts < self.panics[input] {
                    // This attempt panics: the machine is poisoned and
                    // torn down, the restart counter bumps.
                    state.restarts += 1;
                    worker.machine_alive = false;
                    let attempts = attempts + 1;
                    if self.lose_input_on_panic {
                        // Buggy: walk away from the input entirely.
                        worker.current = None;
                        worker.pc = ScanPc::Fetch;
                    } else if attempts >= RESPAWN_MAX_ATTEMPTS {
                        state.record(input, ScanOutcome::Fault);
                        worker.current = None;
                        worker.pc = ScanPc::Fetch;
                    } else {
                        worker.current = Some((input, attempts));
                        worker.pc = ScanPc::Ensure;
                    }
                } else {
                    state.record(input, ScanOutcome::Completed);
                    worker.current = None;
                    worker.pc = ScanPc::Fetch;
                }
                Step::Progress
            }
        };
        state.workers[tid] = worker;
        step
    }

    fn invariant(&self, state: &RespawnState) -> Result<(), String> {
        if let Some(input) = state.double_write {
            return Err(format!("input {input} recorded twice"));
        }
        let max_restarts = expected_restarts(&self.panics);
        if state.restarts > max_restarts {
            return Err(format!(
                "{} machine restarts, at most {max_restarts} possible",
                state.restarts
            ));
        }
        Ok(())
    }

    fn check(&self, state: &RespawnState) -> Result<(), String> {
        for (input, &panics) in self.panics.iter().enumerate() {
            let expected = expected_outcome(panics);
            match state.outcomes[input] {
                None => return Err(format!("input {input} was never scanned to an outcome")),
                Some(actual) if actual != expected => {
                    return Err(format!(
                        "input {input} finished {actual:?}, expected {expected:?}"
                    ));
                }
                Some(_) => {}
            }
        }
        let expected_restarts = expected_restarts(&self.panics);
        if state.restarts != expected_restarts {
            return Err(format!(
                "{} machine restarts recorded, expected {expected_restarts}",
                state.restarts
            ));
        }
        Ok(())
    }
}

/// The outcome of an input whose first `panics` attempts panic.
fn expected_outcome(panics: usize) -> ScanOutcome {
    if panics >= RESPAWN_MAX_ATTEMPTS {
        ScanOutcome::Fault
    } else {
        ScanOutcome::Completed
    }
}

/// The restarts a batch with these per-input panics counts.
fn expected_restarts(panics: &[usize]) -> usize {
    panics.iter().map(|&p| p.min(RESPAWN_MAX_ATTEMPTS)).sum()
}

// ---------------------------------------------------------------------------
// Pool: batches lent to persistent helpers under a scan-thread cap.
// ---------------------------------------------------------------------------

/// See module docs. Threads `0..batches.len()` are callers, one batch
/// each; the next `helpers` threads are the pool's helpers.
#[derive(Debug, Clone)]
pub struct PoolModel {
    /// Per caller, per input: how many attempts panic, as in
    /// [`RespawnModel::panics`].
    pub batches: Vec<Vec<usize>>,
    /// Persistent helper threads.
    pub helpers: usize,
    /// The cap on threads scanning at once while a helper scans.
    pub jobs: usize,
    /// Buggy variant: a caller returns as soon as its own share is done,
    /// without revoking its queued tickets or waiting for the helpers that
    /// took one.
    pub caller_returns_early: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallerPc {
    /// Count in as a scan thread; post tickets unless helpers hold too
    /// many slots.
    Arrive,
    /// Wait for helpers to give slots back, then post tickets.
    Blocked,
    /// The caller's own share, as worker 0.
    Scan,
    /// Revoke the queued tickets; return unless a taken one is unfinished.
    Settle,
    /// Wait for the taken tickets to finish, then return.
    Wait,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HelperPc {
    /// Wait for a ticket (or, with every caller gone, shut down).
    Idle,
    /// Between inputs: give the slot back and take it again if one is free.
    Gate(usize),
    /// Claim and scan the batch's next input.
    Scan(usize),
    /// The fetch found no input: give the slot back.
    GiveBack(usize),
    /// Finish the ticket (the helper's last touch of the batch).
    Finish(usize),
}

/// One batch as its caller's stack holds it.
#[derive(Debug)]
struct PoolBatch {
    next: usize,
    outcomes: Vec<Option<ScanOutcome>>,
    outstanding: usize,
    /// Helpers between taking a ticket to this batch and finishing it.
    holders: usize,
    returned: bool,
}

/// Shared state of the pool protocol.
#[derive(Debug)]
pub struct PoolState {
    tickets: std::collections::VecDeque<usize>,
    /// Callers in flight.
    callers: usize,
    /// Helpers holding a slot.
    scanning: usize,
    restarts: usize,
    batches: Vec<PoolBatch>,
    caller_pcs: Vec<CallerPc>,
    helper_pcs: Vec<HelperPc>,
    violation: Option<String>,
}

impl PoolModel {
    fn crowded(&self, state: &PoolState) -> bool {
        state.scanning > 0 && state.callers + state.scanning > self.jobs
    }

    fn post(&self, state: &mut PoolState, batch: usize) {
        let wanted = (self.batches[batch].len() / 2).min(self.jobs);
        let tickets = wanted.saturating_sub(state.callers).min(self.helpers);
        state.tickets.extend(std::iter::repeat_n(batch, tickets));
        state.batches[batch].outstanding = tickets;
    }

    /// A helper reads or writes `batch`: an error once its caller returned.
    fn touch(state: &mut PoolState, batch: usize) {
        if state.batches[batch].returned {
            state
                .violation
                .get_or_insert(format!("a helper touched batch {batch} after its caller returned"));
        }
    }

    /// `fetch_add` the batch's index and, if that claimed an input, run
    /// it under the per-input guard: `false` when no input was left. One
    /// step, because what the guard touches (the worker's session, the
    /// claimed input's slot) is the claimer's alone, and the restart count
    /// only adds, so its retries commute with every other thread's steps;
    /// `RespawnModel` explores them one by one.
    fn claim(&self, state: &mut PoolState, batch: usize) -> bool {
        let input = state.batches[batch].next;
        state.batches[batch].next += 1;
        let Some(&panics) = self.batches[batch].get(input) else { return false };
        state.restarts += panics.min(RESPAWN_MAX_ATTEMPTS);
        if state.batches[batch].outcomes[input].replace(expected_outcome(panics)).is_some() {
            state.violation.get_or_insert(format!("batch {batch} input {input} recorded twice"));
        }
        true
    }

    fn leave(state: &mut PoolState, batch: usize) -> Step {
        state.callers -= 1;
        state.batches[batch].returned = true;
        Step::Done
    }
}

impl Model for PoolModel {
    type State = PoolState;

    fn name(&self) -> &'static str {
        "pool"
    }

    fn threads(&self) -> usize {
        self.batches.len() + self.helpers
    }

    fn init(&self) -> PoolState {
        PoolState {
            tickets: std::collections::VecDeque::new(),
            callers: 0,
            scanning: 0,
            restarts: 0,
            batches: self
                .batches
                .iter()
                .map(|panics| PoolBatch {
                    next: 0,
                    outcomes: vec![None; panics.len()],
                    outstanding: 0,
                    holders: 0,
                    returned: false,
                })
                .collect(),
            caller_pcs: vec![CallerPc::Arrive; self.batches.len()],
            helper_pcs: vec![HelperPc::Idle; self.helpers],
            violation: None,
        }
    }

    fn enabled(&self, state: &PoolState, tid: usize) -> bool {
        match state.caller_pcs.get(tid) {
            Some(CallerPc::Blocked) => !self.crowded(state),
            Some(CallerPc::Wait) => state.batches[tid].outstanding == 0,
            Some(_) => true,
            None => match state.helper_pcs[tid - self.batches.len()] {
                HelperPc::Idle => {
                    !state.tickets.is_empty() || state.batches.iter().all(|b| b.returned)
                }
                _ => true,
            },
        }
    }

    fn step(&self, state: &mut PoolState, tid: usize) -> Step {
        if let Some(&pc) = state.caller_pcs.get(tid) {
            let batch = tid;
            state.caller_pcs[tid] = match pc {
                CallerPc::Arrive => {
                    state.callers += 1;
                    if self.crowded(state) {
                        CallerPc::Blocked
                    } else {
                        self.post(state, batch);
                        CallerPc::Scan
                    }
                }
                CallerPc::Blocked => {
                    self.post(state, batch);
                    CallerPc::Scan
                }
                CallerPc::Scan if self.claim(state, batch) => CallerPc::Scan,
                CallerPc::Scan => CallerPc::Settle,
                CallerPc::Settle if self.caller_returns_early => return Self::leave(state, batch),
                CallerPc::Settle => {
                    let queued = state.tickets.len();
                    state.tickets.retain(|&ticket| ticket != batch);
                    state.batches[batch].outstanding -= queued - state.tickets.len();
                    if state.batches[batch].outstanding == 0 {
                        return Self::leave(state, batch);
                    }
                    CallerPc::Wait
                }
                CallerPc::Wait => return Self::leave(state, batch),
            };
            return Step::Progress;
        }
        let helper = tid - self.batches.len();
        state.helper_pcs[helper] = match state.helper_pcs[helper] {
            HelperPc::Idle => {
                let Some(batch) = state.tickets.pop_front() else {
                    return Step::Done; // every caller is gone: shut down
                };
                Self::touch(state, batch);
                state.batches[batch].holders += 1;
                let has_inputs = state.batches[batch].next < self.batches[batch].len();
                if state.callers + state.scanning < self.jobs && has_inputs {
                    state.scanning += 1;
                    HelperPc::Scan(batch)
                } else {
                    HelperPc::Finish(batch)
                }
            }
            HelperPc::Gate(batch) => {
                state.scanning -= 1;
                if state.callers + state.scanning < self.jobs {
                    state.scanning += 1;
                    HelperPc::Scan(batch)
                } else {
                    HelperPc::Finish(batch)
                }
            }
            HelperPc::Scan(batch) => {
                Self::touch(state, batch);
                if self.claim(state, batch) {
                    HelperPc::Gate(batch)
                } else {
                    HelperPc::GiveBack(batch)
                }
            }
            HelperPc::GiveBack(batch) => {
                state.scanning -= 1;
                HelperPc::Finish(batch)
            }
            HelperPc::Finish(batch) => {
                Self::touch(state, batch);
                state.batches[batch].outstanding -= 1;
                state.batches[batch].holders -= 1;
                HelperPc::Idle
            }
        };
        Step::Progress
    }

    fn invariant(&self, state: &PoolState) -> Result<(), String> {
        if let Some(violation) = &state.violation {
            return Err(violation.clone());
        }
        if let Some(batch) = state.batches.iter().position(|b| b.returned && b.holders > 0) {
            return Err(format!("caller {batch} returned while a helper still holds its batch"));
        }
        // A caller scans from its arrival to its return; a waiting one
        // does not yet.
        let active = state
            .caller_pcs
            .iter()
            .zip(&state.batches)
            .filter(|(pc, batch)| {
                !matches!(pc, CallerPc::Arrive | CallerPc::Blocked) && !batch.returned
            })
            .count();
        if state.scanning > 0 && active + state.scanning > self.jobs {
            return Err(format!(
                "{active} callers and {} helpers scanning, {} jobs",
                state.scanning, self.jobs
            ));
        }
        Ok(())
    }

    fn check(&self, state: &PoolState) -> Result<(), String> {
        for (batch, panics) in self.batches.iter().enumerate() {
            for (input, &panics) in panics.iter().enumerate() {
                let expected = expected_outcome(panics);
                match state.batches[batch].outcomes[input] {
                    None => return Err(format!("batch {batch} input {input} was never scanned")),
                    Some(actual) if actual != expected => {
                        return Err(format!(
                            "batch {batch} input {input} finished {actual:?}, expected {expected:?}"
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        let expected: usize = self.batches.iter().map(|panics| expected_restarts(panics)).sum();
        if state.restarts != expected {
            return Err(format!("{} restarts recorded, expected {expected}", state.restarts));
        }
        if state.scanning != 0 || state.callers != 0 || !state.tickets.is_empty() {
            return Err(format!(
                "settled with {} slots held, {} callers, {} tickets queued",
                state.scanning,
                state.callers,
                state.tickets.len()
            ));
        }
        Ok(())
    }
}
