//! LRU cache of compiled programs with miss coalescing.
//!
//! Serving traffic repeats patterns: deep-packet rules are applied to
//! every packet, log-scan expressions to every shard. Compilation walks
//! the whole multi-dialect pass pipeline (parse → `regex` dialect passes →
//! lowering → Jump Simplification → codegen), which is pure overhead the
//! second time the same pattern arrives. The cache memoizes the finished
//! [`Program`] keyed by `(pattern, CompilerOptions)` — the options are
//! part of the key because every transformation toggle changes the emitted
//! code (that is the point of the paper's per-transformation flags).
//!
//! One mutex guards one map. Each entry carries the stamp of its last
//! use; a hit bumps the stamp and an insert at capacity evicts the
//! smallest, so eviction follows exact least-recently-used order over
//! the whole cache. Compilation runs outside the lock, and two threads
//! missing on the *same* key coalesce: the first miss registers an
//! in-flight ticket, racers wait on its condvar and receive the winner's
//! [`Arc<Program>`], so each key is compiled once no matter how many
//! threads ask for it concurrently. A failed compile wakes all waiters,
//! the first of which retries as the new leader — errors are per-caller
//! and never cached.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use cicero_core::CompilerOptions;
use cicero_isa::Program;

/// Cache key: what was asked to be compiled, plus how.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    kind: KeyKind,
    options: CompilerOptions,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum KeyKind {
    /// A single pattern.
    Pattern(String),
    /// A multi-matching set (order matters: it determines the reported
    /// match identifiers).
    Set(Vec<String>),
}

impl CacheKey {
    /// Key for one pattern compiled with `options`.
    pub fn pattern(pattern: &str, options: CompilerOptions) -> CacheKey {
        CacheKey { kind: KeyKind::Pattern(pattern.to_owned()), options }
    }

    /// Key for a multi-matching set compiled with `options`.
    pub fn set<S: AsRef<str>>(patterns: &[S], options: CompilerOptions) -> CacheKey {
        CacheKey {
            kind: KeyKind::Set(patterns.iter().map(|p| p.as_ref().to_owned()).collect()),
            options,
        }
    }
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Lookups that waited for another thread's in-flight compile of the
    /// same key instead of compiling themselves (also counted in `hits`).
    pub coalesced: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (1.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What an in-flight compile resolved to, from a waiter's point of view.
enum FlightOutcome {
    /// The leader published the program.
    Ready(Arc<Program>),
    /// The leader's build failed; the waiter should retry (and may become
    /// the new leader).
    Failed,
}

/// A ticket for one in-flight compilation: waiters block on the condvar
/// until the leader publishes a result.
struct InFlight {
    result: Mutex<Option<FlightOutcome>>,
    ready: Condvar,
}

impl InFlight {
    fn new() -> Arc<InFlight> {
        Arc::new(InFlight { result: Mutex::new(None), ready: Condvar::new() })
    }

    fn publish(&self, outcome: FlightOutcome) {
        let mut slot = self.result.lock().unwrap_or_else(|p| p.into_inner());
        *slot = Some(outcome);
        self.ready.notify_all();
    }

    fn wait(&self) -> FlightOutcome {
        let mut slot = self.result.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            match slot.take() {
                Some(FlightOutcome::Ready(program)) => {
                    // Put it back for any other waiter still to wake.
                    *slot = Some(FlightOutcome::Ready(Arc::clone(&program)));
                    return FlightOutcome::Ready(program);
                }
                Some(FlightOutcome::Failed) => {
                    *slot = Some(FlightOutcome::Failed);
                    return FlightOutcome::Failed;
                }
                None => {
                    slot = self.ready.wait(slot).unwrap_or_else(|p| p.into_inner());
                }
            }
        }
    }
}

struct Inner {
    capacity: usize,
    /// Each resident program with the stamp of its last use.
    entries: HashMap<CacheKey, (Arc<Program>, u64)>,
    /// The last use stamp handed out; stamps only grow.
    clock: u64,
    /// Compilations currently running.
    in_flight: HashMap<CacheKey, Arc<InFlight>>,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
}

/// What one lookup resolved to.
enum Lookup {
    /// Resident entry, recency refreshed.
    Hit(Arc<Program>),
    /// No entry and no in-flight compile; the caller is now the leader
    /// for this key and must compile and publish on the returned ticket.
    Lead(Arc<InFlight>),
    /// Another thread is compiling this key; wait on the ticket.
    Join(Arc<InFlight>),
}

/// A thread-safe LRU cache of compiled programs.
///
/// Shared by every worker and every front-end thread of a
/// [`Runtime`](crate::Runtime). Lookups take one short mutex hold;
/// compilation runs outside the lock, and concurrent misses on the same
/// key coalesce onto a single compile.
pub struct ProgramCache {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ProgramCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ProgramCache")
            .field("entries", &stats.entries)
            .field("capacity", &stats.capacity)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

impl ProgramCache {
    /// An empty cache holding at most `capacity` programs (minimum 1).
    pub fn new(capacity: usize) -> ProgramCache {
        ProgramCache {
            inner: Mutex::new(Inner {
                capacity: capacity.max(1),
                entries: HashMap::new(),
                clock: 0,
                in_flight: HashMap::new(),
                hits: 0,
                misses: 0,
                coalesced: 0,
                evictions: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// One locked probe: hit, lead, or join.
    fn probe(&self, key: &CacheKey) -> Lookup {
        let mut inner = self.lock();
        inner.clock += 1;
        let now = inner.clock;
        if let Some((program, last_use)) = inner.entries.get_mut(key) {
            *last_use = now;
            let program = Arc::clone(program);
            inner.hits += 1;
            return Lookup::Hit(program);
        }
        if let Some(flight) = inner.in_flight.get(key).map(Arc::clone) {
            inner.hits += 1;
            inner.coalesced += 1;
            return Lookup::Join(flight);
        }
        inner.misses += 1;
        let flight = InFlight::new();
        inner.in_flight.insert(key.clone(), Arc::clone(&flight));
        Lookup::Lead(flight)
    }

    /// Look up `key`, or compile it with `build` and insert the result.
    /// `build` hands over the shared program itself, so whatever the
    /// caller keys by its address is in place before any waiter sees it.
    ///
    /// Returns the program and whether the lookup was a hit (a lookup
    /// that coalesced onto another thread's in-flight compile counts as a
    /// hit: this caller ran no pass pipeline).
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error; nothing is inserted on failure, and
    /// coalesced waiters retry (the first becoming the new leader) rather
    /// than inheriting the leader's error.
    pub fn get_or_insert_with<E>(
        &self,
        key: CacheKey,
        build: impl FnOnce() -> Result<Arc<Program>, E>,
    ) -> Result<(Arc<Program>, bool), E> {
        let mut build = Some(build);
        loop {
            match self.probe(&key) {
                Lookup::Hit(program) => return Ok((program, true)),
                Lookup::Join(flight) => match flight.wait() {
                    FlightOutcome::Ready(program) => return Ok((program, true)),
                    // The leader failed; loop back — this thread may now
                    // become the leader and compile with its own builder.
                    FlightOutcome::Failed => {}
                },
                Lookup::Lead(flight) => {
                    // Compile outside the lock: patterns can take a
                    // while and other keys must not serialize behind them.
                    let built = (build.take().expect("leader builds at most once"))();
                    let mut inner = self.lock();
                    inner.in_flight.remove(&key);
                    match built {
                        Ok(program) => {
                            if inner.entries.len() >= inner.capacity {
                                let oldest = inner
                                    .entries
                                    .iter()
                                    .min_by_key(|(_, (_, last_use))| *last_use)
                                    .map(|(key, _)| key.clone());
                                if let Some(oldest) = oldest {
                                    inner.entries.remove(&oldest);
                                    inner.evictions += 1;
                                }
                            }
                            inner.clock += 1;
                            let now = inner.clock;
                            inner.entries.insert(key, (Arc::clone(&program), now));
                            drop(inner);
                            flight.publish(FlightOutcome::Ready(Arc::clone(&program)));
                            return Ok((program, false));
                        }
                        Err(e) => {
                            drop(inner);
                            flight.publish(FlightOutcome::Failed);
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            coalesced: inner.coalesced,
            evictions: inner.evictions,
            entries: inner.entries.len(),
            capacity: inner.capacity,
        }
    }

    /// Drop every resident entry (counters are kept; in-flight compiles
    /// are unaffected and will still publish to their waiters).
    pub fn clear(&self) {
        self.lock().entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cicero_isa::Instruction;

    fn tiny_program(ch: u8) -> Arc<Program> {
        let program = Program::from_instructions(vec![Instruction::Match(ch), Instruction::Accept]);
        Arc::new(program.unwrap())
    }

    fn key(pattern: &str) -> CacheKey {
        CacheKey::pattern(pattern, CompilerOptions::optimized())
    }

    #[test]
    fn second_lookup_hits_and_skips_the_builder() {
        let cache = ProgramCache::new(4);
        let (first, hit) =
            cache.get_or_insert_with::<()>(key("a"), || Ok(tiny_program(b'a'))).unwrap();
        assert!(!hit);
        let (second, hit) =
            cache.get_or_insert_with::<()>(key("a"), || panic!("must not recompile")).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn options_are_part_of_the_key() {
        let cache = ProgramCache::new(4);
        let opt = CacheKey::pattern("a", CompilerOptions::optimized());
        let unopt = CacheKey::pattern("a", CompilerOptions::unoptimized());
        cache.get_or_insert_with::<()>(opt, || Ok(tiny_program(b'a'))).unwrap();
        let (_, hit) = cache.get_or_insert_with::<()>(unopt, || Ok(tiny_program(b'a'))).unwrap();
        assert!(!hit, "different options must not share an entry");
    }

    #[test]
    fn set_keys_are_order_sensitive_and_distinct_from_patterns() {
        let opts = CompilerOptions::optimized();
        assert_ne!(CacheKey::set(&["a", "b"], opts), CacheKey::set(&["b", "a"], opts));
        assert_ne!(CacheKey::set(&["a"], opts), CacheKey::pattern("a", opts));
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = ProgramCache::new(2);
        cache.get_or_insert_with::<()>(key("a"), || Ok(tiny_program(b'a'))).unwrap();
        cache.get_or_insert_with::<()>(key("b"), || Ok(tiny_program(b'b'))).unwrap();
        // Touch "a" so "b" becomes the LRU entry.
        cache.get_or_insert_with::<()>(key("a"), || panic!("cached")).unwrap();
        cache.get_or_insert_with::<()>(key("c"), || Ok(tiny_program(b'c'))).unwrap();
        let (_, hit_a) =
            cache.get_or_insert_with::<()>(key("a"), || Ok(tiny_program(b'a'))).unwrap();
        assert!(hit_a, "recently used entry survived");
        let (_, hit_b) =
            cache.get_or_insert_with::<()>(key("b"), || Ok(tiny_program(b'b'))).unwrap();
        assert!(!hit_b, "LRU entry was evicted");
        assert_eq!(cache.stats().evictions, 2, "c evicted b, then b evicted c");
    }

    /// With a single slot, every distinct key evicts the previous entry,
    /// while repeated lookups of the resident key keep hitting. Also pins
    /// the constructor's clamp: capacity 0 still holds one entry.
    #[test]
    fn capacity_one_keeps_only_the_latest_entry() {
        for requested in [0usize, 1] {
            let cache = ProgramCache::new(requested);
            assert_eq!(cache.stats().capacity, 1, "capacity clamps to >= 1");
            cache.get_or_insert_with::<()>(key("a"), || Ok(tiny_program(b'a'))).unwrap();
            let (_, hit) = cache.get_or_insert_with::<()>(key("a"), || panic!("cached")).unwrap();
            assert!(hit);
            // A second key evicts the first…
            cache.get_or_insert_with::<()>(key("b"), || Ok(tiny_program(b'b'))).unwrap();
            assert_eq!(cache.stats().entries, 1);
            let (_, hit) =
                cache.get_or_insert_with::<()>(key("a"), || Ok(tiny_program(b'a'))).unwrap();
            assert!(!hit, "the single slot now holds `b`");
            // …and re-requesting the first evicts the second right back.
            let (_, hit) =
                cache.get_or_insert_with::<()>(key("b"), || Ok(tiny_program(b'b'))).unwrap();
            assert!(!hit);
            assert_eq!(cache.stats().evictions, 3);
        }
    }

    /// Evictions happen strictly in least-recently-*used* order — a hit
    /// refreshes recency, an insert counts as a use, and untouched entries
    /// leave in insertion order.
    #[test]
    fn eviction_follows_exact_lru_order() {
        let cache = ProgramCache::new(3);
        for pattern in ["a", "b", "c"] {
            cache
                .get_or_insert_with::<()>(key(pattern), || Ok(tiny_program(pattern.as_bytes()[0])))
                .unwrap();
        }
        // Recency order is now a < b < c; touching `a` makes it b < c < a.
        cache.get_or_insert_with::<()>(key("a"), || panic!("cached")).unwrap();
        // Each insert evicts exactly the current LRU entry: d evicts b,
        // e evicts c.
        cache.get_or_insert_with::<()>(key("d"), || Ok(tiny_program(b'd'))).unwrap();
        cache.get_or_insert_with::<()>(key("e"), || Ok(tiny_program(b'e'))).unwrap();
        // Probe hits first: a missing probe inserts (and evicts), so the
        // resident keys must be confirmed before the evicted ones.
        for (pattern, resident) in
            [("a", true), ("d", true), ("e", true), ("b", false), ("c", false)]
        {
            let (_, hit) = cache
                .get_or_insert_with::<()>(key(pattern), || Ok(tiny_program(pattern.as_bytes()[0])))
                .unwrap();
            assert_eq!(hit, resident, "residency of {pattern:?}");
        }
    }

    /// A cached program is *the same artifact* as a fresh compile: equal
    /// instruction stream (the ISA types implement `Eq`) and identical
    /// encoded bytes. This is what makes the cache transparent to every
    /// downstream consumer.
    #[test]
    fn cache_hit_is_byte_identical_to_a_fresh_compile() {
        let pattern = "th(is|at|ose)|x[0-9]{2,4}$";
        let cache = ProgramCache::new(2);
        let compile = || {
            cicero_core::Compiler::with_options(CompilerOptions::optimized())
                .compile(pattern)
                .map(|c| Arc::new(c.into_program()))
                .map_err(|e| e.to_string())
        };
        cache.get_or_insert_with(key(pattern), compile).unwrap();
        let (cached, hit) =
            cache.get_or_insert_with::<String>(key(pattern), || panic!("cached")).unwrap();
        assert!(hit);
        let fresh = compile().unwrap();
        assert_eq!(cached, fresh, "instruction streams must be equal");
        assert_eq!(cached.instructions(), fresh.instructions());
        assert_eq!(
            cicero_isa::EncodedProgram::from_program(&cached).to_bytes(),
            cicero_isa::EncodedProgram::from_program(&fresh).to_bytes(),
            "encoded binaries must be byte-identical"
        );
    }

    #[test]
    fn build_errors_insert_nothing() {
        let cache = ProgramCache::new(2);
        let err = cache.get_or_insert_with(key("bad"), || Err("boom")).unwrap_err();
        assert_eq!(err, "boom");
        assert_eq!(cache.stats().entries, 0);
        let (_, hit) =
            cache.get_or_insert_with::<()>(key("bad"), || Ok(tiny_program(b'x'))).unwrap();
        assert!(!hit);
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = ProgramCache::new(2);
        cache.get_or_insert_with::<()>(key("a"), || Ok(tiny_program(b'a'))).unwrap();
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 1);
    }

    /// The anti-stampede contract: N threads racing to a cold key run the
    /// builder exactly once; everyone gets the same `Arc` and the racers
    /// are accounted as coalesced hits.
    #[test]
    fn racing_misses_coalesce_onto_one_compile() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        const THREADS: usize = 8;
        let cache = Arc::new(ProgramCache::new(16));
        let builds = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(THREADS));
        let programs: Vec<Arc<Program>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let builds = Arc::clone(&builds);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let (program, _) = cache
                            .get_or_insert_with::<()>(key("stampede"), || {
                                builds.fetch_add(1, Ordering::SeqCst);
                                // Hold the in-flight window open long
                                // enough that the other threads arrive
                                // while the compile is still running.
                                std::thread::sleep(std::time::Duration::from_millis(50));
                                Ok(tiny_program(b's'))
                            })
                            .unwrap();
                        program
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "exactly one compilation per key");
        for program in &programs[1..] {
            assert!(Arc::ptr_eq(&programs[0], program), "all threads share one artifact");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, (THREADS - 1) as u64);
        assert!(stats.coalesced >= 1, "racers must be accounted as coalesced");
        assert_eq!(stats.entries, 1);
    }

    /// A failed leader does not strand its waiters: they wake, retry, and
    /// the first to re-probe becomes the new leader.
    #[test]
    fn waiters_recover_when_the_leader_fails() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        let cache = Arc::new(ProgramCache::new(4));
        let attempts = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(2));
        let results: Vec<Result<bool, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let attempts = Arc::clone(&attempts);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        cache
                            .get_or_insert_with(key("fallible"), || {
                                let attempt = attempts.fetch_add(1, Ordering::SeqCst);
                                std::thread::sleep(std::time::Duration::from_millis(30));
                                if attempt == 0 {
                                    Err("first compile fails".to_owned())
                                } else {
                                    Ok(tiny_program(b'f'))
                                }
                            })
                            .map(|(_, hit)| hit)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // One thread saw the error, the other (whichever order they
        // raced in) ended up with the program.
        let errors = results.iter().filter(|r| r.is_err()).count();
        let successes = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!((errors, successes), (1, 1), "{results:?}");
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
        let (_, hit) =
            cache.get_or_insert_with::<()>(key("fallible"), || panic!("cached")).unwrap();
        assert!(hit, "the successful retry must be resident");
    }
}
