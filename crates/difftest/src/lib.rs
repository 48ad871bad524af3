//! Differential fuzzing subsystem: oracle-vs-compiler equivalence over a
//! configuration matrix, with divergence minimization and a committed
//! regression corpus.
//!
//! The pieces, in pipeline order:
//!
//! * [`generate`] — deterministic, seedable pattern and input generation
//!   covering the full supported grammar plus adversarial shapes;
//! * [`harness`] — the equivalence matrix: reference Pike VM × compiled
//!   programs at `O0`/`O2` × interpreter × cycle-level simulator over
//!   `CC_ID` 1–3 organizations × parallel batch execution at 1/2/4
//!   workers;
//! * [`mod@shrink`] — greedy delta debugging that reduces a failing
//!   `(pattern, inputs)` pair to a minimal reproducer;
//! * [`corpus`] — the committed TOML regression corpus, replayed as a
//!   normal `cargo test` (see `tests/corpus_replay.rs`);
//! * [`registry`] — the serving-path axis: pattern sets round-tripped
//!   through the ruleset registry's compile → persist → reload pipeline
//!   and held to the oracle on both backends.
//!
//! The [`fuzz`] entry point ties them together and is what the
//! `cicero difftest` subcommand invokes.

pub mod corpus;
pub mod generate;
pub mod harness;
pub mod registry;
pub mod shrink;

use cicero_telemetry::Telemetry;

pub use corpus::{default_corpus_dir, load_dir, CorpusCase};
pub use generate::Generator;
pub use harness::{
    apply_splits, check_all, check_batch, check_case, check_stream_case, check_with_splits,
    Divergence, Outcome, PatternUnderTest,
};
pub use registry::{check_registry_case, split_set};
pub use shrink::{shrink, shrink_streamed, Shrunk, ShrunkStreamed};

/// Options for one fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Base seed; the whole run is a pure function of
    /// `(seed, iters, jobs)`.
    pub seed: u64,
    /// Number of generated patterns (each checked against its full input
    /// set and the batch-determinism cells).
    pub iters: usize,
    /// Worker threads; `0` means all host cores.
    pub jobs: usize,
    /// Randomized chunk-split vectors per pattern on the streaming axis,
    /// on top of the deterministic splits [`check_all`] always runs
    /// (all-1-byte chunks and a middle split).
    pub stream_splits: usize,
    /// Telemetry sink for `difftest.*` counters.
    pub telemetry: Option<Telemetry>,
}

impl FuzzOptions {
    /// A single-threaded run with the given seed and iteration count.
    pub fn new(seed: u64, iters: usize) -> FuzzOptions {
        FuzzOptions { seed, iters, jobs: 1, stream_splits: 1, telemetry: None }
    }
}

/// One minimized divergence found by [`fuzz`].
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// The first disagreeing cell, as found (pre-minimization).
    pub divergence: Divergence,
    /// The generated pattern that exposed it.
    pub pattern: String,
    /// The generated input set that exposed it.
    pub inputs: Vec<Vec<u8>>,
    /// The minimized reproducer.
    pub shrunk: Shrunk,
    /// The minimized chunk-split points, for divergences that only fire
    /// on the streaming axis at a randomized split; `None` when the
    /// whole-input matrix (which includes the deterministic splits)
    /// already diverges.
    pub splits: Option<Vec<usize>>,
    /// The disagreeing cell of the *minimized* reproducer (minimization
    /// keeps "some cell diverges", not necessarily the same cell).
    pub shrunk_divergence: Divergence,
}

impl DivergenceReport {
    /// Convert to a corpus entry named `name`.
    pub fn to_corpus_case(&self, name: &str) -> CorpusCase {
        CorpusCase {
            name: name.to_owned(),
            pattern: self.shrunk.pattern.clone(),
            inputs: self.shrunk.inputs.clone(),
            kind: "divergence".to_owned(),
            note: format!(
                "minimized from {:?}; diverged at {}",
                self.pattern, self.shrunk_divergence
            ),
            splits: self.splits.clone().unwrap_or_default(),
            refusal: None,
        }
    }
}

/// Aggregate results of a fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Patterns generated and checked.
    pub patterns: usize,
    /// `(pattern, input)` cases checked across the matrix.
    pub cases: usize,
    /// Patterns skipped (capacity limits — never divergences).
    pub skipped: usize,
    /// Shrink steps spent minimizing, summed over all divergences.
    pub shrink_steps: usize,
    /// Every divergence found, minimized.
    pub divergences: Vec<DivergenceReport>,
}

impl FuzzReport {
    fn merge(&mut self, other: FuzzReport) {
        self.patterns += other.patterns;
        self.cases += other.cases;
        self.skipped += other.skipped;
        self.shrink_steps += other.shrink_steps;
        self.divergences.extend(other.divergences);
    }
}

/// The failure predicate used for minimization: *any* cell diverges.
///
/// Minimization deliberately does not pin the original cell — a smaller
/// reproducer that trips a different cell is still a compiler bug, and
/// chasing "the same cell" makes shrinking much weaker (classic ddmin
/// practice).
pub fn still_diverges(pattern: &str, inputs: &[Vec<u8>]) -> bool {
    check_all(pattern, inputs).diverged()
}

/// The stream-axis failure predicate: some cell diverges when every input
/// is additionally streamed at the given split points.
pub fn still_diverges_with_splits(pattern: &str, inputs: &[Vec<u8>], splits: &[usize]) -> bool {
    check_with_splits(pattern, inputs, std::slice::from_ref(&splits.to_vec())).diverged()
}

fn fuzz_worker(seed: u64, iters: usize, stream_splits: usize) -> FuzzReport {
    let mut generator = Generator::new(seed);
    let mut report = FuzzReport::default();
    for _ in 0..iters {
        let (pattern, ast) = generator.pattern();
        let inputs = generator.inputs(&ast);
        let extra: Vec<Vec<usize>> =
            (0..stream_splits).map(|_| generator.splits(&inputs)).collect();
        report.patterns += 1;
        report.cases += inputs.len();
        match check_with_splits(&pattern, &inputs, &extra) {
            Outcome::Pass => {}
            Outcome::Skip(_) => report.skipped += 1,
            Outcome::Diverged(divergence) => {
                let finding = minimize(divergence, pattern, inputs, &extra);
                report.shrink_steps += finding.shrunk.steps;
                report.divergences.push(finding);
            }
        }
    }
    report
}

/// Minimize one divergence, picking the split-aware shrinker when the
/// failure only fires at one of the randomized split vectors.
fn minimize(
    divergence: Divergence,
    pattern: String,
    inputs: Vec<Vec<u8>>,
    extra: &[Vec<usize>],
) -> DivergenceReport {
    if still_diverges(&pattern, &inputs) {
        let shrunk = shrink(&pattern, &inputs, &still_diverges);
        let shrunk_divergence = match check_all(&shrunk.pattern, &shrunk.inputs) {
            Outcome::Diverged(d) => d,
            // Unreachable by construction (shrink preserves the
            // predicate), but stay total.
            _ => divergence.clone(),
        };
        return DivergenceReport {
            divergence,
            pattern,
            inputs,
            shrunk,
            splits: None,
            shrunk_divergence,
        };
    }
    // The whole-input matrix passes, so the failure needs one of the
    // randomized split vectors; minimize the splits along with the case.
    if let Some(splits) =
        extra.iter().find(|splits| still_diverges_with_splits(&pattern, &inputs, splits))
    {
        let minimized = shrink_streamed(&pattern, &inputs, splits, &still_diverges_with_splits);
        let shrunk_divergence = match check_with_splits(
            &minimized.shrunk.pattern,
            &minimized.shrunk.inputs,
            std::slice::from_ref(&minimized.splits),
        ) {
            Outcome::Diverged(d) => d,
            _ => divergence.clone(),
        };
        return DivergenceReport {
            divergence,
            pattern,
            inputs,
            shrunk: minimized.shrunk,
            splits: Some(minimized.splits),
            shrunk_divergence,
        };
    }
    // Not reproducible in isolation (should not happen — the checks are
    // deterministic); report it unminimized rather than lose it.
    DivergenceReport {
        divergence: divergence.clone(),
        shrunk: Shrunk { pattern: pattern.clone(), inputs: inputs.clone(), steps: 0 },
        pattern,
        inputs,
        splits: None,
        shrunk_divergence: divergence,
    }
}

/// Mix a worker index into the base seed (the golden-ratio increment) so
/// workers explore disjoint pattern streams.
fn worker_seed(base: u64, worker: u64) -> u64 {
    base ^ worker.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(worker)
}

/// Run the differential fuzzer.
///
/// Iterations are split across `jobs` workers, each with a seed derived
/// from `options.seed` and its worker index, so the run is reproducible
/// for a fixed `(seed, iters, jobs)` triple.
pub fn fuzz(options: &FuzzOptions) -> FuzzReport {
    let jobs = match options.jobs {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(options.iters.max(1));

    let mut report = FuzzReport::default();
    if jobs <= 1 {
        report = fuzz_worker(options.seed, options.iters, options.stream_splits);
    } else {
        let per = options.iters / jobs;
        let extra = options.iters % jobs;
        let partials = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs)
                .map(|w| {
                    let iters = per + usize::from(w < extra);
                    let seed = worker_seed(options.seed, w as u64);
                    let stream_splits = options.stream_splits;
                    scope.spawn(move || fuzz_worker(seed, iters, stream_splits))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("fuzz worker panicked")).collect::<Vec<_>>()
        });
        for partial in partials {
            report.merge(partial);
        }
    }

    if let Some(telemetry) = &options.telemetry {
        telemetry.counter_add("difftest.patterns", report.patterns as u64);
        telemetry.counter_add("difftest.cases", report.cases as u64);
        telemetry.counter_add("difftest.skipped", report.skipped as u64);
        telemetry.counter_add("difftest.divergences", report.divergences.len() as u64);
        telemetry.counter_add("difftest.shrink_steps", report.shrink_steps as u64);
    }
    report
}

/// Replay every corpus case in `dir` through the full matrix, returning
/// each case with its outcome.
///
/// # Errors
///
/// Returns corpus I/O or parse errors; divergences are reported in the
/// outcomes, not as errors.
pub fn replay_corpus(dir: &std::path::Path) -> Result<Vec<(CorpusCase, Outcome)>, String> {
    let cases = corpus::load_dir(dir)?;
    // Registry cases need a runtime for the compile/persist round trip;
    // built lazily so a corpus without them pays nothing.
    let mut runtime = None;
    Ok(cases
        .into_iter()
        .map(|case| {
            let outcome = if case.kind == "registry" {
                // A registry case's `pattern` is a newline-joined set,
                // round-tripped through persist/reload instead of the
                // in-memory matrix.
                let runtime = runtime.get_or_insert_with(|| {
                    cicero_runtime::Runtime::new(cicero_runtime::RuntimeOptions {
                        jobs: 1,
                        ..cicero_runtime::RuntimeOptions::default()
                    })
                });
                let scratch = registry::case_dir(&case.name);
                let _ = std::fs::remove_dir_all(&scratch);
                let outcome = check_registry_case(
                    runtime,
                    &scratch,
                    &registry::split_set(&case.pattern),
                    &case.inputs,
                );
                if !outcome.diverged() {
                    let _ = std::fs::remove_dir_all(&scratch);
                }
                outcome
            } else if let Some(refusal) = &case.refusal {
                check_refusal(&case.pattern, refusal)
            } else {
                // Cases minimized on the streaming axis carry their split
                // points; replaying them re-streams every input at those
                // splits on top of the whole-input matrix.
                check_with_splits(&case.pattern, &case.inputs, std::slice::from_ref(&case.splits))
            };
            (case, outcome)
        })
        .collect())
}

/// An expected-error corpus case: `pattern` must be refused by the new
/// compiler (alone and as a set) and by the legacy compiler, each with an
/// error containing `refusal`. A compiler that accepts the pattern, or
/// refuses it for another reason, diverges in cell `refusal/<compiler>`.
fn check_refusal(pattern: &str, refusal: &str) -> Outcome {
    let compilers: [(&str, Result<(), String>); 3] = [
        ("new", cicero_core::compile(pattern).map(drop).map_err(|e| e.to_string())),
        (
            "new-set",
            cicero_core::Compiler::new()
                .compile_set(&[pattern])
                .map(drop)
                .map_err(|e| e.to_string()),
        ),
        (
            "legacy",
            cicero_legacy::LegacyCompiler::new(true)
                .compile(pattern)
                .map(drop)
                .map_err(|e| e.to_string()),
        ),
    ];
    for (compiler, result) in compilers {
        let detail = match result {
            Err(error) if error.contains(refusal) => continue,
            Err(error) => format!("refused with `{error}`, expected `{refusal}`"),
            Ok(()) => format!("compiled; expected a refusal containing `{refusal}`"),
        };
        return Outcome::Diverged(Divergence { cell: format!("refusal/{compiler}"), detail });
    }
    Outcome::Pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_refusal_case_diverges_when_a_compiler_accepts_or_refuses_otherwise() {
        let accepted = check_refusal("ab", "address space");
        assert!(
            matches!(&accepted, Outcome::Diverged(d) if d.cell == "refusal/new"),
            "{accepted:?}"
        );
        let other = check_refusal("(a{1024}){9}", "nest deeper");
        assert!(
            matches!(&other, Outcome::Diverged(d) if d.detail.contains("refused with")),
            "{other:?}"
        );
        assert_eq!(check_refusal("(a{1024}){9}", "8192-instruction address space"), Outcome::Pass);
    }
    #[test]
    fn a_short_run_is_deterministic() {
        let a = fuzz(&FuzzOptions::new(7, 20));
        let b = fuzz(&FuzzOptions::new(7, 20));
        assert_eq!(a.patterns, 20);
        assert_eq!(a.cases, b.cases);
        assert_eq!(a.skipped, b.skipped);
        assert_eq!(a.divergences.len(), b.divergences.len());
    }

    #[test]
    fn a_short_run_finds_no_divergences() {
        let report = fuzz(&FuzzOptions::new(42, 60));
        assert!(
            report.divergences.is_empty(),
            "unexpected divergences: {:?}",
            report
                .divergences
                .iter()
                .map(|d| (&d.shrunk.pattern, &d.shrunk_divergence))
                .collect::<Vec<_>>()
        );
        assert_eq!(report.patterns, 60);
        assert!(report.cases >= 60, "each pattern contributes at least one input");
    }

    #[test]
    fn stream_axis_runs_clean_with_extra_random_splits() {
        let report =
            fuzz(&FuzzOptions { seed: 42, iters: 30, jobs: 1, stream_splits: 3, telemetry: None });
        assert!(
            report.divergences.is_empty(),
            "chunk-split invariance violated: {:?}",
            report
                .divergences
                .iter()
                .map(|d| (&d.shrunk.pattern, &d.splits, &d.shrunk_divergence))
                .collect::<Vec<_>>()
        );
        assert_eq!(report.patterns, 30);
    }

    #[test]
    fn stream_axis_corpus_cases_roundtrip_their_splits() {
        let finding = DivergenceReport {
            divergence: Divergence { cell: "stream/interp/O2".to_owned(), detail: "x".to_owned() },
            pattern: "ab".to_owned(),
            inputs: vec![b"xaby".to_vec()],
            shrunk: Shrunk { pattern: "ab".to_owned(), inputs: vec![b"ab".to_vec()], steps: 3 },
            splits: Some(vec![1]),
            shrunk_divergence: Divergence {
                cell: "stream/interp/O2".to_owned(),
                detail: "x".to_owned(),
            },
        };
        let case = finding.to_corpus_case("stream-case");
        assert_eq!(case.splits, vec![1]);
        let reparsed = CorpusCase::from_toml("stream-case", &case.to_toml()).unwrap();
        assert_eq!(reparsed.splits, vec![1]);
    }

    #[test]
    fn workers_split_the_iteration_budget() {
        let report =
            fuzz(&FuzzOptions { seed: 3, iters: 10, jobs: 4, stream_splits: 1, telemetry: None });
        assert_eq!(report.patterns, 10);
    }

    #[test]
    fn telemetry_counters_are_exported() {
        let telemetry = Telemetry::new();
        let report = fuzz(&FuzzOptions {
            seed: 11,
            iters: 15,
            jobs: 1,
            stream_splits: 1,
            telemetry: Some(telemetry.clone()),
        });
        assert_eq!(telemetry.counter("difftest.patterns"), 15);
        assert_eq!(telemetry.counter("difftest.cases"), report.cases as u64);
        assert_eq!(telemetry.counter("difftest.divergences"), 0);
    }

    /// End-to-end fault injection: emulate a miscompile (the "compiler"
    /// silently rewrites every `b` to `c`) and check the pipeline catches
    /// it and minimizes the reproducer to the acceptance bound of the
    /// differential-fuzzing issue (<= 20 chars of pattern + input).
    #[test]
    fn an_injected_miscompile_is_caught_and_minimized() {
        fn buggy_check(pattern: &str, inputs: &[Vec<u8>]) -> bool {
            let Ok(oracle) = regex_oracle::Oracle::new(pattern) else {
                return false;
            };
            let mangled = pattern.replace('b', "c");
            let Ok(compiled) = cicero_core::compile(&mangled) else {
                return false;
            };
            let program = compiled.into_program();
            inputs
                .iter()
                .any(|input| cicero_isa::run(&program, input).accepted != oracle.is_match(input))
        }

        let pattern = "x+(ab|cd)y{1,3}|qq*";
        let inputs: Vec<Vec<u8>> =
            vec![b"unrelated noise".to_vec(), b"zz xxabyy zz".to_vec(), b"xcdy".to_vec()];
        assert!(buggy_check(pattern, &inputs), "the injected fault must be visible");
        let shrunk = shrink(pattern, &inputs, &buggy_check);
        assert!(buggy_check(&shrunk.pattern, &shrunk.inputs));
        assert!(
            shrunk.size() <= 20,
            "expected <= 20 chars of pattern + input, got {:?} / {:?}",
            shrunk.pattern,
            shrunk.inputs
        );
    }

    #[test]
    fn worker_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> = (0..16).map(|w| worker_seed(42, w)).collect();
        assert_eq!(seeds.len(), 16);
    }
}
