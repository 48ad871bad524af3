//! The persistent batch pool: a batch runs on its caller plus idle
//! helpers, and no batch spawns a thread.
//!
//! A batch's worker loop always runs on the calling thread, as worker 0.
//! A [`Pool`] keeps `jobs − 1` helper threads, started on the first batch
//! that wants one and joined when the pool drops, and a helper joins a
//! batch as worker 1, 2, … only while the process runs fewer than `jobs`
//! scan threads:
//!
//! * a caller counts as a scan thread for its whole batch;
//! * a helper counts only while it holds a slot, which it takes before it
//!   claims an input and gives back after; with no slot free it leaves
//!   the batch, and the batch's caller scans what is left;
//! * a caller that arrives while helpers hold slots past `jobs` waits for
//!   them to leave their inputs (one input's time), so no more than `jobs`
//!   threads scan at once whenever a helper is scanning.
//!
//! A batch wants one worker per two inputs, up to `jobs`, and posts
//! `min(inputs / 2, jobs) − callers` tickets (the callers in flight,
//! itself included), floored at 0: a lone batch gets helpers, and
//! concurrent batches each scan their own inputs. A helper holds its slot
//! for a whole input, and a caller arriving meanwhile waits up to that
//! long; with two inputs or more per worker, what a helper saves its batch
//! is at least what it can cost an arrival. (Lending one input of a
//! two-input simulator batch measured a worse `dsa-sim` p99 and peak RSS
//! than the thread scope it replaces.)
//!
//! Once its loop is done, the caller revokes the tickets no helper took
//! and waits for the taken ones to finish, so no helper holds the batch
//! once [`Pool::run`] returns. `crates/permute`'s `PoolModel` checks this
//! hand-off under every interleaving.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// A batch's worker loop: run as worker `worker`, scanning the input
/// indices `claim` hands out until it returns `None`.
pub(crate) type Work<'a> = dyn Fn(usize, &mut dyn FnMut() -> Option<usize>) + Sync + 'a;

/// The helpers of one runtime, and the accounting they share with callers.
pub(crate) struct Pool {
    inner: Arc<Inner>,
    helpers: OnceLock<Vec<JoinHandle<()>>>,
}

struct Inner {
    jobs: usize,
    state: Mutex<State>,
    /// Helpers wait here for a ticket, or for the pool to shut down.
    posted: Condvar,
    /// Callers wait here for a helper to leave an input or finish a ticket.
    returned: Condvar,
}

#[derive(Default)]
struct State {
    tickets: VecDeque<Ticket>,
    /// Batches in flight.
    callers: usize,
    /// Helpers holding a slot.
    scanning: usize,
    /// Callers waiting on arrival for a helper to give a slot back.
    arriving: usize,
    shutdown: bool,
}

/// One batch lent to one helper.
struct Ticket(*const Batch<'static>);

// SAFETY: a ticket is a shared reference to a `Batch`, which is `Sync`;
// `Pool::run` keeps the batch alive for as long as any ticket to it exists.
unsafe impl Send for Ticket {}

/// One batch, on its caller's stack, as its workers see it.
struct Batch<'a> {
    work: &'a Work<'a>,
    inputs: usize,
    next: AtomicUsize,
    /// Worker indices handed out; the caller is worker 0.
    workers: AtomicUsize,
    /// Tickets posted and not yet finished; changed only under the pool lock.
    outstanding: AtomicUsize,
    /// A helper's panic outside the loop's per-input guard, for the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Batch<'_> {
    fn claim(&self) -> Option<usize> {
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        (index < self.inputs).then_some(index)
    }

    fn has_inputs(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.inputs
    }

    /// Run the loop on a helper that holds a slot, as the next worker.
    /// The helper gives its slot back between inputs, and leaves once
    /// taking it again would put more than `jobs` threads on scans.
    fn help(&self, inner: &Inner) {
        let worker = self.workers.fetch_add(1, Ordering::Relaxed);
        let mut held = true;
        let mut first = true;
        let mut claim = || {
            if !std::mem::take(&mut first) && !inner.retake() {
                held = false;
                return None;
            }
            let index = self.claim();
            if index.is_none() {
                inner.give_back();
                held = false;
            }
            index
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| (self.work)(worker, &mut claim)));
        if held {
            inner.give_back();
        }
        if let Err(payload) = result {
            self.panic.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(payload);
        }
    }
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, on: &Condvar, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        on.wait(state).unwrap_or_else(PoisonError::into_inner)
    }

    /// A helper gives its slot back and takes it again if the process
    /// still runs fewer than `jobs` scan threads without it.
    fn retake(&self) -> bool {
        let mut state = self.lock();
        state.scanning -= 1;
        if state.arriving > 0 {
            self.returned.notify_all();
        }
        let free = state.callers + state.scanning < self.jobs;
        state.scanning += usize::from(free);
        free
    }

    fn give_back(&self) {
        let mut state = self.lock();
        state.scanning -= 1;
        if state.arriving > 0 {
            self.returned.notify_all();
        }
    }

    /// A helper's life: take tickets until the pool shuts down.
    fn serve(&self) {
        let mut state = self.lock();
        loop {
            let Some(ticket) = state.tickets.pop_front() else {
                if state.shutdown {
                    return;
                }
                state = self.wait(&self.posted, state);
                continue;
            };
            {
                // SAFETY: the batch outlives every ticket to it: its caller
                // does not return before the ticket is finished below.
                let batch = unsafe { &*ticket.0 };
                let joined = state.callers + state.scanning < self.jobs && batch.has_inputs();
                state.scanning += usize::from(joined);
                drop(state);
                if joined {
                    batch.help(self);
                }
                state = self.lock();
                // The last touch: once the lock drops, the caller may return.
                batch.outstanding.fetch_sub(1, Ordering::Relaxed);
            }
            self.returned.notify_all();
        }
    }
}

/// Waits, on return or unwind, until no helper holds the batch.
struct Settle<'p, 'b> {
    inner: &'p Inner,
    batch: &'b Batch<'b>,
}

impl Drop for Settle<'_, '_> {
    fn drop(&mut self) {
        let mut state = self.inner.lock();
        let mine: *const Batch<'_> = self.batch;
        let queued = state.tickets.len();
        state.tickets.retain(|ticket| !std::ptr::eq(ticket.0.cast(), mine));
        let revoked = queued - state.tickets.len();
        self.batch.outstanding.fetch_sub(revoked, Ordering::Relaxed);
        while self.batch.outstanding.load(Ordering::Relaxed) > 0 {
            state = self.inner.wait(&self.inner.returned, state);
        }
        state.callers -= 1;
        if state.arriving > 0 {
            self.inner.returned.notify_all();
        }
    }
}

impl Pool {
    /// A pool for `jobs` scan threads; its `jobs − 1` helpers start with
    /// the first batch that wants one.
    pub(crate) fn new(jobs: usize) -> Pool {
        Pool {
            inner: Arc::new(Inner {
                jobs: jobs.max(1),
                state: Mutex::new(State::default()),
                posted: Condvar::new(),
                returned: Condvar::new(),
            }),
            helpers: OnceLock::new(),
        }
    }

    /// Helpers running (spawning them on the first call); fewer than
    /// `jobs − 1` only if the system refused a thread.
    fn helpers(&self) -> usize {
        let helpers = self.helpers.get_or_init(|| {
            (1..self.inner.jobs)
                .map_while(|helper| {
                    let inner = Arc::clone(&self.inner);
                    std::thread::Builder::new()
                        .name(format!("cicero-pool-{helper}"))
                        .spawn(move || inner.serve())
                        .ok()
                })
                .collect()
        });
        helpers.len()
    }

    /// Run `work` over `inputs` input indices: on this thread as worker 0,
    /// and on each helper that joins as the next worker. Returns the
    /// number of workers that ran. A panic that escapes a helper's loop
    /// is resumed here once the batch has settled.
    pub(crate) fn run(&self, inputs: usize, work: &Work<'_>) -> usize {
        let batch = Batch {
            work,
            inputs,
            next: AtomicUsize::new(0),
            workers: AtomicUsize::new(1),
            outstanding: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };
        let wanted = (inputs / 2).min(self.inner.jobs);
        let helpers = if wanted > 1 { self.helpers() } else { 0 };
        {
            let mut state = self.inner.lock();
            state.callers += 1;
            while state.scanning > 0 && state.callers + state.scanning > self.inner.jobs {
                state.arriving += 1;
                state = self.inner.wait(&self.inner.returned, state);
                state.arriving -= 1;
            }
            let tickets = wanted.saturating_sub(state.callers).min(helpers);
            if tickets > 0 {
                // SAFETY: the lifetime erased here is restored by `Settle`,
                // which runs on return and on unwind alike: it revokes
                // every ticket still queued and waits until each one a
                // helper took is finished, and a helper touches the batch
                // only between taking its ticket and finishing it. So the
                // batch, and the inputs and outputs its loop borrows,
                // outlive every helper's use.
                let lent: *const Batch<'static> = std::ptr::from_ref(&batch).cast();
                state.tickets.extend((0..tickets).map(|_| Ticket(lent)));
                batch.outstanding.store(tickets, Ordering::Relaxed);
                for _ in 0..tickets {
                    self.inner.posted.notify_one();
                }
            }
        }
        let settle = Settle { inner: &self.inner, batch: &batch };
        work(0, &mut || batch.claim());
        drop(settle);
        if let Some(payload) = batch.panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
            panic::resume_unwind(payload);
        }
        batch.workers.into_inner()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.inner.lock().shutdown = true;
        self.inner.posted.notify_all();
        for helper in self.helpers.take().into_iter().flatten() {
            // A helper catches every panic of the loops it runs.
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    use super::*;

    /// Spin (for up to 2 s) until `flag` is set.
    fn await_flag(flag: &AtomicBool) {
        let until = Instant::now() + Duration::from_secs(2);
        while !flag.load(Ordering::SeqCst) && Instant::now() < until {
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Suppress the panic-to-stderr hook for a deliberately panicking
    /// section.
    fn quietly<T>(f: impl FnOnce() -> T) -> T {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        let result = f();
        panic::set_hook(prev);
        result
    }

    #[test]
    fn a_panic_outside_the_input_guard_reaches_the_caller_and_the_helper_serves_on() {
        let pool = Pool::new(2);
        let joined = AtomicBool::new(false);
        let helped = AtomicUsize::new(0);
        // Worker 0 waits for the helper, so the helper surely joins.
        let work = |worker: usize, claim: &mut dyn FnMut() -> Option<usize>| {
            if worker == 0 {
                await_flag(&joined);
            } else {
                joined.store(true, Ordering::SeqCst);
                if helped.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("a bug in the loop itself");
                }
            }
            while claim().is_some() {}
        };
        let payload = quietly(|| panic::catch_unwind(AssertUnwindSafe(|| pool.run(4, &work))))
            .expect_err("the helper's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"a bug in the loop itself"));
        joined.store(false, Ordering::SeqCst);
        assert_eq!(pool.run(4, &work), 2, "the helper that panicked serves the next batch");
        assert_eq!(helped.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_caller_that_unwinds_waits_for_its_helpers() {
        let pool = Pool::new(2);
        let started = AtomicBool::new(false);
        let finished = AtomicBool::new(false);
        let work = |worker: usize, claim: &mut dyn FnMut() -> Option<usize>| {
            if worker == 0 {
                await_flag(&started);
                panic!("the caller's loop unwinds");
            }
            while claim().is_some() {
                started.store(true, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
            }
            finished.store(true, Ordering::SeqCst);
        };
        let unwound = quietly(|| panic::catch_unwind(AssertUnwindSafe(|| pool.run(4, &work))));
        assert!(unwound.is_err());
        assert!(
            finished.load(Ordering::SeqCst),
            "the caller unwound past a helper still in its batch"
        );
    }

    #[test]
    fn a_one_job_pool_spawns_nothing() {
        let pool = Pool::new(1);
        let caller = std::thread::current().id();
        let work = |_: usize, claim: &mut dyn FnMut() -> Option<usize>| {
            while claim().is_some() {
                assert_eq!(std::thread::current().id(), caller);
            }
        };
        assert_eq!(pool.run(8, &work), 1);
        assert!(pool.helpers.get().is_none());
    }
}
