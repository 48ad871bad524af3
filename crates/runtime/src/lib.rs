//! Parallel batch-matching runtime.
//!
//! The paper's architecture wins by *parallel enumeration* — many cores
//! chewing through thread queues concurrently (§4). This crate is the
//! host-side analogue for serving many inputs: a fixed pool of workers,
//! each owning its own [`Machine`](cicero_sim::Machine) (so its
//! instruction caches stay warm across the inputs it serves, mirroring the
//! hardware rule that reprogramming flushes the caches while streaming new
//! data does not), pulling input chunks from a shared work queue and
//! merging per-worker [`ExecReport`](cicero_sim::ExecReport)s
//! deterministically — the merged reports are byte-identical for every
//! worker count. Every batch runs on its calling thread, and the
//! runtime's `jobs − 1` persistent helpers join it (one worker per two
//! inputs) while the process runs fewer than `jobs` scan threads, so no
//! request spawns a thread.
//!
//! In front of the pool sits an LRU [`ProgramCache`] keyed by
//! `(pattern, CompilerOptions)`: repeated patterns — the common case for
//! serving traffic, where the same rule set scans every packet — skip the
//! whole multi-dialect pass pipeline and go straight to execution. This is
//! MLIR's own argument applied to serving: the compiler layers produce
//! reusable, cached artifacts that feed a parallel execution substrate,
//! rather than being re-run per request. Every compile also lowers the
//! pattern's `regex` IR to its host engine, and the runtime keeps that
//! engine beside the program for as long as the program is alive, so no
//! scan lowers anything.
//!
//! # Example
//!
//! ```
//! use cicero_core::Backend;
//! use cicero_runtime::{Budget, Runtime, RuntimeOptions};
//! use cicero_sim::ArchConfig;
//!
//! let runtime = Runtime::new(RuntimeOptions { jobs: 2, ..RuntimeOptions::default() });
//! let config = ArchConfig::new_organization(8, 1);
//! let chunks = vec![b"xxabyy".to_vec(), b"nothing".to_vec(), b"ab".to_vec()];
//! let batch = runtime.match_batch_guarded("ab|cd", &chunks, &config, &Budget::UNLIMITED)?;
//! assert_eq!(batch.matches(), 2);
//! assert!(!batch.cache_hit);
//! let again = runtime.match_batch_guarded("ab|cd", &chunks, &config, &Budget::UNLIMITED)?;
//! assert!(again.cache_hit, "second request skips the pass pipeline");
//! assert_eq!(again.outcomes, batch.outcomes, "reports are deterministic");
//! // Backend (and trace parent) are scoped per request, not passed per call.
//! let on_host = runtime.with_backend(Backend::Host);
//! let host = on_host.match_batch_guarded("ab|cd", &chunks, &config, &Budget::UNLIMITED)?;
//! assert!(host.cache_hit, "both backends share one cache entry");
//! assert_eq!(host.matches(), 2);
//! # Ok::<(), cicero_core::CompileError>(())
//! ```

mod budget;
mod cache;
mod handle;
mod pool;
mod session;
mod stream;

use std::collections::HashMap;
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

pub use budget::{Budget, BudgetKind, GuardedBatch, MatchOutcome, WorkerStats};
pub use cache::{CacheKey, CacheStats, ProgramCache};
pub use cicero_hostexec::{EngineKind, HostAllOutcome, HostOutcome, HostProgram};
pub use handle::{PinGuard, SetHandle};
pub use stream::{StreamError, StreamOptions, StreamReport};

use cicero_core::{
    record_pass_spans, Backend, CompileError, Compiled, Compiler, CompilerOptions, HostLowering,
    PipelineReport,
};
use cicero_isa::Program;
use cicero_telemetry::{Telemetry, TraceContext, TraceSpan, Value};

/// Entries in the compiled-program cache.
const CACHE_CAPACITY: usize = 128;

/// The host engine of every program this runtime compiled, for as long as
/// the program is alive, keyed by the program's address inside its
/// [`Arc`] beside a [`Weak`] to it. The `Weak` keeps that allocation from
/// being reused while the entry exists, so a live entry's address is its
/// program's and a lookup is one hash probe, with no program compare.
/// Each insert (a compile) first drops the entries of dead programs, so
/// the map holds the live programs' engines and no more.
#[derive(Default)]
struct Engines {
    map: Mutex<EngineMap>,
}

/// Program address → the program and its engine.
type EngineMap = HashMap<usize, (Weak<Program>, Arc<HostProgram>)>;

impl Engines {
    fn insert(&self, program: &Arc<Program>, engine: Arc<HostProgram>) {
        let mut map = self.map.lock().unwrap_or_else(|p| p.into_inner());
        map.retain(|_, (program, _)| program.strong_count() > 0);
        map.insert(Arc::as_ptr(program) as usize, (Arc::downgrade(program), engine));
    }

    fn get(&self, program: &Program) -> Option<Arc<HostProgram>> {
        let map = self.map.lock().unwrap_or_else(|p| p.into_inner());
        let (weak, engine) = map.get(&(std::ptr::from_ref(program) as usize))?;
        (weak.strong_count() > 0).then(|| Arc::clone(engine))
    }
}

/// The `host.*` attributes naming `engine` on a span.
fn engine_attrs(engine: &HostProgram) -> Vec<(String, Value)> {
    vec![
        ("host.tier".to_owned(), Value::from(engine.engine_kind().to_string())),
        ("host.states".to_owned(), Value::from(engine.state_count())),
        ("host.byte_classes".to_owned(), Value::from(engine.byte_class_count())),
        ("host.table_bytes".to_owned(), Value::from(engine.table_bytes())),
    ]
}

/// Construction-time knobs for a [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// Threads that may scan at once: each batch's caller plus up to
    /// `jobs − 1` persistent helpers; `0` resolves to the host's available
    /// parallelism.
    pub jobs: usize,
    /// Compiler configuration used for every compilation (and part of
    /// every cache key). The runtime compiles for the host whatever its
    /// `backend`, so every program carries its host engine.
    pub compiler: CompilerOptions,
}

impl Default for RuntimeOptions {
    fn default() -> RuntimeOptions {
        RuntimeOptions { jobs: 0, compiler: CompilerOptions::optimized() }
    }
}

/// A pre-run hook invoked with each input index on the thread about to
/// run it (the calling thread, or a pool helper). Exists so tests can
/// inject deterministic faults — a panicking hook exercises the worker
/// panic-isolation path — and see where work runs.
pub type RunHook = Arc<dyn Fn(usize) + Send + Sync>;

/// What every handle onto one runtime shares.
struct Shared {
    options: RuntimeOptions,
    /// Compiles every cache miss: built once, with its dialects and pass
    /// pipelines, rather than once per miss.
    compiler: Compiler,
    jobs: usize,
    cache: ProgramCache,
    engines: Engines,
    pool: pool::Pool,
}

/// A batch-matching runtime: worker pool + compiled-program cache.
///
/// A `Runtime` is a cheap handle: the cache, the host engines and the
/// options live behind one [`Arc`], and [`Runtime::with_backend`] /
/// [`Runtime::with_trace`] return a handle scoped to one request that
/// shares them. Batches from concurrent front-end threads interleave
/// freely.
#[derive(Clone)]
pub struct Runtime {
    shared: Arc<Shared>,
    telemetry: Option<Telemetry>,
    run_hook: Option<RunHook>,
    backend: Backend,
    /// The request span operations hang their children off, as a
    /// `(context, span id)` pair.
    trace: Option<(TraceContext, u32)>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("options", &self.shared.options)
            .field("jobs", &self.shared.jobs)
            .field("cache", &self.shared.cache)
            .field("telemetry", &self.telemetry)
            .field("run_hook", &self.run_hook.as_ref().map(|_| "..."))
            .field("backend", &self.backend)
            .field("traced", &self.trace.is_some())
            .finish()
    }
}

impl Default for Runtime {
    fn default() -> Runtime {
        Runtime::new(RuntimeOptions::default())
    }
}

impl Runtime {
    /// Build a runtime; `options.jobs == 0` resolves to the host's
    /// available parallelism.
    pub fn new(options: RuntimeOptions) -> Runtime {
        let jobs = if options.jobs == 0 {
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
        } else {
            options.jobs
        };
        Runtime {
            shared: Arc::new(Shared {
                compiler: Compiler::with_options(options.compiler.with_backend(Backend::Host)),
                jobs,
                cache: ProgramCache::new(CACHE_CAPACITY),
                engines: Engines::default(),
                pool: pool::Pool::new(jobs),
                options,
            }),
            telemetry: None,
            run_hook: None,
            backend: options.compiler.backend,
            trace: None,
        }
    }

    /// Attach a telemetry collector: every batch then records `runtime.*`
    /// counters and folds each run's
    /// [`ExecReport`](cicero_sim::ExecReport) into the existing `sim.*`
    /// metrics.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Runtime {
        self.telemetry = Some(telemetry);
        self
    }

    /// Install a pre-run hook for the worker pool (see [`RunHook`]).
    #[must_use]
    pub fn with_run_hook(mut self, hook: RunHook) -> Runtime {
        self.run_hook = Some(hook);
        self
    }

    /// A handle that executes on `backend` (the per-request override the
    /// server's `X-Cicero-Backend` header resolves to). The compiled
    /// program is identical either way — both backends share one cache
    /// entry; only the execution engine differs.
    #[must_use]
    pub fn with_backend(&self, backend: Backend) -> Runtime {
        Runtime { backend, ..self.clone() }
    }

    /// A handle whose operations trace under `parent`: compiles open a
    /// `compile` child (per-pass children on a cache miss), batches an
    /// `execute` child with one `{engine}.worker-N` span per pool worker,
    /// streaming sessions a `stream.execute` child.
    #[must_use]
    pub fn with_trace(&self, parent: &TraceSpan) -> Runtime {
        Runtime { trace: Some((parent.context().clone(), parent.id())), ..self.clone() }
    }

    /// The resolved worker count.
    pub fn jobs(&self) -> usize {
        self.shared.jobs
    }

    /// The active options (with `jobs` as originally requested).
    pub fn options(&self) -> &RuntimeOptions {
        &self.shared.options
    }

    /// The compiled-program cache (for statistics and administration).
    pub fn cache(&self) -> &ProgramCache {
        &self.shared.cache
    }

    /// The backend this handle runs on: [`RuntimeOptions::compiler`]'s
    /// unless scoped by [`Runtime::with_backend`].
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The host engine of `program`. Use this to inspect engine selection
    /// or to run host-only entry points like [`HostProgram::run_all`]
    /// directly. A program this runtime compiled (and that is still
    /// alive) comes with the engine its compile lowered from `regex` IR.
    /// Any other program has no IR to lower from: it is un-lowered from
    /// its ISA ([`HostProgram::compile`]) on every call, counted in
    /// `runtime.isa_lowerings` and, under [`Runtime::with_trace`],
    /// traced as a `hostexec.lower` span naming the engine built.
    pub fn host_program(&self, program: &Program) -> Arc<HostProgram> {
        if let Some(engine) = self.shared.engines.get(program) {
            return engine;
        }
        let span = self.trace_child("hostexec.lower");
        let engine = Arc::new(HostProgram::compile(program));
        if let Some(telemetry) = &self.telemetry {
            telemetry.counter_add("runtime.isa_lowerings", 1);
        }
        if let Some(span) = span {
            for (key, value) in engine_attrs(&engine) {
                span.annotate(key, value);
            }
        }
        engine
    }

    /// Open a child of the scoped request span (`None` when untraced).
    pub(crate) fn trace_child(&self, name: &str) -> Option<TraceSpan> {
        self.trace.as_ref().map(|(ctx, parent)| ctx.child_of(Some(*parent), name))
    }

    /// Compile `pattern` through the cache.
    ///
    /// # Errors
    ///
    /// See [`CompileError`]; failures are not cached.
    pub fn compile(&self, pattern: &str) -> Result<Arc<Program>, CompileError> {
        Ok(self.compile_with_hit(pattern)?.0)
    }

    pub(crate) fn compile_with_hit(
        &self,
        pattern: &str,
    ) -> Result<(Arc<Program>, bool), CompileError> {
        let key = CacheKey::pattern(pattern, self.cache_key_options());
        self.lookup(key, None, |compiler| compiler.compile(pattern))
    }

    /// Compile a multi-matching set through the cache (see
    /// [`Compiler::compile_set`]); the set's match identifiers index the
    /// `patterns` slice in order.
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile_set`].
    pub fn compile_set<S: AsRef<str>>(&self, patterns: &[S]) -> Result<Arc<Program>, CompileError> {
        Ok(self.compile_set_with_hit(patterns)?.0)
    }

    /// [`Runtime::compile_set`], also reporting whether the program came
    /// out of the cache (no compilation).
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile_set`].
    pub fn compile_set_with_hit<S: AsRef<str>>(
        &self,
        patterns: &[S],
    ) -> Result<(Arc<Program>, bool), CompileError> {
        let key = CacheKey::set(patterns, self.cache_key_options());
        self.lookup(key, Some(patterns.len()), |compiler| compiler.compile_set(patterns))
    }

    /// Compilation is backend-agnostic, so the backend is normalized out
    /// of every cache key: sim and host requests share one entry.
    fn cache_key_options(&self) -> CompilerOptions {
        self.shared.options.compiler.with_backend(Backend::Sim)
    }

    /// One cache lookup under a `compile` trace span; `build` runs the
    /// pass pipeline and the host lowering on a miss, the engine is kept
    /// beside the program before any other caller sees the program, and
    /// the per-pass timings and the lowering become the span's children.
    fn lookup(
        &self,
        key: CacheKey,
        set_size: Option<usize>,
        build: impl FnOnce(&Compiler) -> Result<Compiled, CompileError>,
    ) -> Result<(Arc<Program>, bool), CompileError> {
        let opened = Instant::now();
        let span = self.trace_child("compile");
        if let (Some(span), Some(patterns)) = (&span, set_size) {
            span.annotate("patterns", patterns);
        }
        let mut report: Option<(PipelineReport, Option<HostLowering>)> = None;
        let result: Result<(Arc<Program>, bool), CompileError> =
            self.shared.cache.get_or_insert_with(key, || {
                let compiled = build(&self.shared.compiler)?;
                let (passes, host) = (compiled.pass_report().clone(), compiled.host().cloned());
                let program = Arc::new(compiled.into_program());
                if let Some(host) = &host {
                    self.shared.engines.insert(&program, Arc::clone(&host.engine));
                }
                report = Some((passes, host));
                Ok(program)
            });
        if let Ok((_, hit)) = &result {
            if let Some(telemetry) = &self.telemetry {
                let name = if *hit { "runtime.cache_hits" } else { "runtime.cache_misses" };
                telemetry.counter_add(name, 1);
            }
            if let Some(span) = &span {
                span.annotate("cache_hit", *hit);
            }
        }
        if let (Some(span), Some((passes, host))) = (&span, &report) {
            span.annotate("passes", passes.passes.len());
            record_pass_spans(span, passes);
            // The lowering ran last, just before the lookup returned.
            if let Some(host) = host {
                let start = span.start_offset() + opened.elapsed().saturating_sub(host.duration);
                let attrs = engine_attrs(&host.engine);
                let ctx = span.context();
                ctx.record_complete(Some(span.id()), "hostexec.lower", start, host.duration, attrs);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cicero_sim::ArchConfig;

    fn chunks() -> Vec<Vec<u8>> {
        let mut inputs: Vec<Vec<u8>> = (0..7).map(|i| vec![b'x'; 30 + i]).collect();
        inputs[2] = b"xxxabcdxxx".to_vec();
        inputs[5] = b"bcda".to_vec();
        inputs
    }

    const PATTERN: &str = "(abcd|bcda|cdab|dabc)";

    fn runtime(jobs: usize) -> Runtime {
        Runtime::new(RuntimeOptions { jobs, ..RuntimeOptions::default() })
    }

    #[test]
    fn cache_serves_repeated_patterns() {
        let runtime = runtime(2);
        let config = ArchConfig::old_organization(1);
        let first =
            runtime.match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED).unwrap();
        assert!(!first.cache_hit);
        let second =
            runtime.match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED).unwrap();
        assert!(second.cache_hit);
        assert_eq!(first.outcomes, second.outcomes);
        let stats = runtime.cache().stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn compile_set_is_cached_too() {
        let runtime = runtime(1);
        let patterns = ["GET /", "POST /"];
        let (a, first_hit) = runtime.compile_set_with_hit(&patterns).unwrap();
        let (b, second_hit) = runtime.compile_set_with_hit(&patterns).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((first_hit, second_hit), (false, true));
        assert_eq!(runtime.cache().stats().hits, 1);
    }

    /// Engines are kept by program address: sets compiled past the
    /// cache's capacity are evicted and dropped, their entries pruned and
    /// their addresses reused, and every lookup must still return the
    /// engine the program's own compile lowered, never an ISA lowering.
    #[test]
    fn every_compiled_program_keeps_its_engine_through_churn() {
        let telemetry = Telemetry::new();
        let runtime = runtime(1).with_telemetry(telemetry.clone());
        let inputs: [&[u8]; 4] = [b"xxa7byy", b"zxyyzq", b"a12b", b"xzy"];
        let rounds = 3 * CACHE_CAPACITY;
        let mut addresses = std::collections::HashSet::new();
        for round in 0..rounds {
            let patterns = [format!("a{round}b"), "x[yz]+".to_owned()];
            let program = runtime.compile_set(&patterns).unwrap();
            addresses.insert(Arc::as_ptr(&program) as usize);
            let engine = runtime.host_program(&program);
            assert!(engine.lowering().is_some(), "round {round}: the compile's engine");
            let isa = HostProgram::compile(&program);
            for input in inputs {
                assert_eq!(engine.run_all(input), isa.run_all(input), "round {round} {input:?}");
            }
            let kept = runtime.shared.engines.map.lock().unwrap().len();
            assert!(kept <= CACHE_CAPACITY + 1, "round {round}: {kept} engines kept");
        }
        assert_eq!(telemetry.counter("runtime.isa_lowerings"), 0);
        assert!(
            addresses.len() < rounds,
            "the allocator reused no address; the test proves nothing"
        );
    }

    #[test]
    fn compile_errors_surface_and_are_not_cached() {
        let runtime = runtime(1);
        assert!(runtime.compile("(").is_err());
        assert_eq!(runtime.cache().stats().entries, 0);
    }

    #[test]
    fn empty_sets_error_through_the_cache_without_polluting_it() {
        let runtime = runtime(1);
        let err = runtime.compile_set::<&str>(&[]).unwrap_err();
        assert!(matches!(err, CompileError::EmptySet));
        assert_eq!(runtime.cache().stats().entries, 0);
        // A duplicate-bearing set still compiles and caches normally.
        let set = runtime.compile_set(&["ab", "ab"]).unwrap();
        let all = cicero_isa::run_all(&set, b"xab");
        assert_eq!(all.matched_ids, vec![0, 1]);
        assert_eq!(runtime.cache().stats().entries, 1);
    }

    #[test]
    fn scoped_handles_share_the_cache_and_leave_the_parent_untouched() {
        let runtime = runtime(1);
        let on_host = runtime.with_backend(Backend::Host);
        assert_eq!((runtime.backend(), on_host.backend()), (Backend::Sim, Backend::Host));
        let a = runtime.compile(PATTERN).unwrap();
        let b = on_host.compile(PATTERN).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "both backends share one cache entry");
        assert_eq!(on_host.cache().stats().hits, 1);
    }

    #[test]
    fn telemetry_merges_runtime_and_sim_metrics() {
        let telemetry = Telemetry::new();
        let runtime = runtime(2).with_telemetry(telemetry.clone());
        let config = ArchConfig::old_organization(1);
        runtime.match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED).unwrap();
        runtime.match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED).unwrap();
        assert_eq!(telemetry.counter("runtime.guarded_batches"), 2);
        assert_eq!(telemetry.counter("runtime.inputs"), 14);
        assert_eq!(telemetry.counter("runtime.matches"), 4);
        assert_eq!(telemetry.counter("runtime.cache_hits"), 1);
        assert_eq!(telemetry.counter("runtime.cache_misses"), 1);
        // Every individual run is folded into the existing sim.* metrics.
        assert_eq!(telemetry.counter("sim.runs"), 14);
        assert_eq!(telemetry.histogram("sim.cycles").unwrap().count, 14);
        // ...and what each batch's cycles cost the host.
        assert_eq!(telemetry.histogram("sim.host_ns_per_cycle").unwrap().count, 2);
    }

    #[test]
    fn host_runs_leave_the_sim_series_alone() {
        let telemetry = Telemetry::new();
        let runtime = runtime(2).with_telemetry(telemetry.clone()).with_backend(Backend::Host);
        let config = ArchConfig::old_organization(1);
        runtime.match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED).unwrap();
        let program = runtime.compile(PATTERN).unwrap();
        let input = std::io::Cursor::new(vec![b'x'; 2048]);
        runtime.scan_stream(&program, input, &config, &StreamOptions::default()).unwrap();
        assert_eq!(telemetry.counter("runtime.inputs"), 7);
        assert_eq!(telemetry.counter("stream.sessions"), 1);
        // A host run's report counts bytes: it is no simulator execution.
        assert_eq!(telemetry.counter("sim.runs"), 0);
        assert!(telemetry.histogram("sim.cycles").is_none());
        assert!(telemetry.histogram("sim.host_ns_per_cycle").is_none());
    }

    #[test]
    fn zero_jobs_resolves_to_host_parallelism() {
        let runtime = Runtime::new(RuntimeOptions::default());
        assert!(runtime.jobs() >= 1);
    }
}
