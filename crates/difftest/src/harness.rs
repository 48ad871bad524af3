//! The equivalence matrix: one (pattern, input) case fanned out over
//! every execution cell, with a precise description of the first
//! disagreement.
//!
//! Cells per case:
//!
//! * the reference Pike VM ([`regex_oracle::Oracle`]) — ground truth for
//!   `is_match` and the earliest match end;
//! * the functional ISA interpreter over the compiled program at `O0`
//!   (all optimizations off) and `O2` (all on) — must reproduce both the
//!   verdict and the earliest end exactly;
//! * the host-native engines ([`cicero_hostexec::HostProgram`]) — each
//!   program lowered onto every engine it fits
//!   ([`HostProgram::every_engine`]), so `bit64`, `bit128`, `bit-wide`
//!   and the interpreter fallback each see every program their mask
//!   holds — must reproduce the verdict and the earliest end exactly
//!   (they implement the interpreter's earliest-match-end rule), and
//!   their all-matches `run_all` must report the same id set as
//!   [`cicero_isa::run_all`];
//! * the cycle-level simulator over both programs on every configuration
//!   in [`sim_matrix`] (the single-core reference at `CC_ID` 3, the
//!   two-engine ring, plus multi-core organizations at `CC_ID` 1 and 2) —
//!   must reproduce the verdict and report a member of
//!   [`Oracle::match_ends`]. Even the single-core configuration races in
//!   hardware time (S2→S2 forwarding lets one NFA path run ahead of
//!   queued threads at earlier positions), so *every* simulator cell has
//!   any-match semantics — the ruling pinned in
//!   `tests/match_end_semantics.rs`;
//! * batch level: the serving worker pool
//!   ([`Runtime::run_batch_guarded`](cicero_runtime::Runtime::run_batch_guarded))
//!   at 1/2/4 workers must be byte-identical to the sequential
//!   [`simulate_batch`];
//! * stream level (chunk-split invariance): the input re-run through the
//!   resumable matchers — [`cicero_isa::run_chunked`], every host
//!   engine's [`cicero_hostexec::run_chunked`], and
//!   [`cicero_sim::simulate_streaming`] over every simulator
//!   configuration — split at chunk boundaries, must be *byte-identical*
//!   to the whole-input cells. Every case gets the two deterministic
//!   worst-case splits (all 1-byte chunks, and a middle split) plus any
//!   caller-provided split vectors (randomized ones from the fuzzer,
//!   committed ones from the corpus).

use cicero_core::{CompileError, Compiler, CompilerOptions};
use cicero_hostexec::HostProgram;
use cicero_isa::Program;
use cicero_runtime::{Budget, MatchOutcome, Runtime, RuntimeOptions};
use cicero_sim::{simulate, simulate_batch, ArchConfig};
use regex_oracle::Oracle;

/// Worker counts exercised at batch level.
pub const PARALLEL_JOBS: [usize; 3] = [1, 2, 4];

/// One concrete disagreement between two cells of the matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The cell that disagreed (e.g. `interp/O2`, `sim/O0/NEW 4x1 CORES`).
    pub cell: String,
    /// Human-readable got-vs-want description.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.cell, self.detail)
    }
}

/// The outcome of checking one case (or one whole input set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every cell agreed.
    Pass,
    /// The case could not be run (capacity limits, unparseable pattern);
    /// not a divergence.
    Skip(String),
    /// Two cells disagreed.
    Diverged(Divergence),
}

impl Outcome {
    /// Whether this outcome is a divergence.
    pub fn diverged(&self) -> bool {
        matches!(self, Outcome::Diverged(_))
    }
}

/// The simulator configurations every case runs on.
///
/// Spans every *viable* `CC_ID` from 1 to 3: the single-core reference,
/// the two-engine ring of the old organization, and the
/// in-engine-parallel new organizations at `CC_ID` 1/2.
///
/// `CC_ID = 0` is deliberately absent: a one-character window can never
/// accept a consuming match's successor, so the FIFO window deadlocks by
/// construction — the simulator rejects such configs (see
/// `cicero_sim::Machine::new`).
pub fn sim_matrix() -> Vec<ArchConfig> {
    vec![
        ArchConfig::old_organization(1),
        ArchConfig::old_organization(2),
        ArchConfig::new_organization(2, 1),
        ArchConfig::new_organization(4, 1),
        ArchConfig::new_organization(4, 2),
    ]
}

/// A pattern compiled for every cell: the oracle plus both optimization
/// levels of the multi-dialect compiler.
pub struct PatternUnderTest {
    /// The pattern text.
    pub pattern: String,
    /// The reference matcher.
    pub oracle: Oracle,
    /// `("O0"|"O2", program)` pairs.
    pub programs: Vec<(&'static str, Program)>,
    /// Each program lowered onto every host engine it fits, in the same
    /// order (lowered once per pattern, reused across every input and
    /// split).
    pub hosts: Vec<Vec<HostProgram>>,
}

impl PatternUnderTest {
    /// Parse and compile `pattern` at both levels.
    ///
    /// # Errors
    ///
    /// Returns [`Outcome::Skip`] for patterns the front-end rejects or
    /// that exceed capacity limits (instruction memory), and
    /// [`Outcome::Diverged`] when compilation fails for any *other*
    /// reason — a pass error on a parseable pattern is a compiler bug.
    pub fn build(pattern: &str) -> Result<PatternUnderTest, Outcome> {
        let ast = regex_frontend::parse(pattern)
            .map_err(|e| Outcome::Skip(format!("unparseable pattern: {e}")))?;
        let oracle = Oracle::from_ast(&ast);
        let mut programs = Vec::with_capacity(2);
        for (level, options) in
            [("O0", CompilerOptions::unoptimized()), ("O2", CompilerOptions::optimized())]
        {
            match Compiler::with_options(options).compile(pattern) {
                Ok(compiled) => programs.push((level, compiled.into_program())),
                Err(CompileError::Codegen(e)) => {
                    return Err(Outcome::Skip(format!("{level} exceeds capacity: {e}")))
                }
                Err(e) => {
                    return Err(Outcome::Diverged(Divergence {
                        cell: format!("compile/{level}"),
                        detail: format!("compilation failed on a parseable pattern: {e}"),
                    }))
                }
            }
        }
        let hosts =
            programs.iter().map(|(_, program)| HostProgram::every_engine(program)).collect();
        Ok(PatternUnderTest { pattern: pattern.to_owned(), oracle, programs, hosts })
    }
}

/// Run one input through every per-input cell of the matrix.
pub fn check_case(put: &PatternUnderTest, input: &[u8]) -> Outcome {
    let want = put.oracle.is_match(input);
    let want_end = put.oracle.match_end(input);
    let valid_ends = put.oracle.match_ends(input);

    for ((level, program), hosts) in put.programs.iter().zip(&put.hosts) {
        let out = cicero_isa::run(program, input);
        if out.accepted != want {
            return diverged(
                format!("interp/{level}"),
                format!("is_match = {}, oracle says {want}", out.accepted),
                put,
                input,
            );
        }
        if out.match_position != want_end {
            return diverged(
                format!("interp/{level}"),
                format!("match_end = {:?}, oracle says {want_end:?}", out.match_position),
                put,
                input,
            );
        }
        // Every host engine implements the interpreter's exact
        // earliest-match-end semantics, so each is held to the oracle's
        // single answer, not the any-match set the simulators get. The
        // run goes through the matcher, whose position is the bytes
        // examined.
        let interp_all = cicero_isa::run_all(program, input);
        for host in hosts {
            let mut matcher = host.matcher();
            let host_out = matcher.feed(input).unwrap_or_else(|| matcher.finish());
            if host_out.accepted != want {
                return diverged(
                    format!("host/{level}/{}", host.engine_kind()),
                    format!("is_match = {}, oracle says {want}", host_out.accepted),
                    put,
                    input,
                );
            }
            if host_out.match_position != want_end {
                return diverged(
                    format!("host/{level}/{}", host.engine_kind()),
                    format!("match_end = {:?}, oracle says {want_end:?}", host_out.match_position),
                    put,
                    input,
                );
            }
            // `run_all` answers both questions in one scan: its id set is held
            // to the interpreter's, and its first stop to `run`'s.
            let host_all = host.run_all(input);
            if host_all.matched_ids != interp_all.matched_ids {
                return diverged(
                    format!("host-all/{level}/{}", host.engine_kind()),
                    format!(
                        "run_all ids = {:?}, interpreter says {:?}",
                        host_all.matched_ids, interp_all.matched_ids
                    ),
                    put,
                    input,
                );
            }
            if host_all.first != host_out || host_all.examined != matcher.position() {
                return diverged(
                    format!("host-all/{level}/{}", host.engine_kind()),
                    format!(
                        "run_all first stop = {:?} after {} bytes, run says {host_out:?} after {}",
                        host_all.first,
                        host_all.examined,
                        matcher.position()
                    ),
                    put,
                    input,
                );
            }
        }
        for config in sim_matrix() {
            let report = simulate(program, input, &config);
            let cell = format!("sim/{level}/{}/cc{}", config.name(), config.cc_id_bits);
            if report.hit_cycle_limit {
                return diverged(cell, "hit the cycle limit".to_owned(), put, input);
            }
            if report.accepted != want {
                return diverged(
                    cell,
                    format!("is_match = {}, oracle says {want}", report.accepted),
                    put,
                    input,
                );
            }
            match report.match_position {
                Some(end) if !valid_ends.contains(&end) => {
                    return diverged(
                        cell,
                        format!("match_end = {end} is not a valid end ({valid_ends:?})"),
                        put,
                        input,
                    );
                }
                None if want => {
                    return diverged(
                        cell,
                        "accepted without a match position".to_owned(),
                        put,
                        input,
                    );
                }
                _ => {}
            }
        }
    }
    Outcome::Pass
}

/// Split `input` at the given split points (positions in `0..len`,
/// in any order, duplicates and out-of-range points ignored), producing
/// the chunk sequence a streaming matcher would be fed.
///
/// `&[]` yields the whole input as one chunk; an empty input yields no
/// chunks at all (a stream with zero reads).
pub fn apply_splits(input: &[u8], splits: &[usize]) -> Vec<Vec<u8>> {
    let mut points: Vec<usize> =
        splits.iter().copied().filter(|&p| p > 0 && p < input.len()).collect();
    points.sort_unstable();
    points.dedup();
    let mut chunks = Vec::with_capacity(points.len() + 1);
    let mut start = 0;
    for point in points {
        chunks.push(input[start..point].to_vec());
        start = point;
    }
    if start < input.len() {
        chunks.push(input[start..].to_vec());
    }
    chunks
}

/// Chunk-split invariance for one `(input, splits)` pair: the resumable
/// interpreter and the resumable simulator over every configuration must
/// reproduce the whole-input results *byte-identically* when the input
/// arrives split at the given points.
pub fn check_stream_case(put: &PatternUnderTest, input: &[u8], splits: &[usize]) -> Outcome {
    let chunks = apply_splits(input, splits);
    let borrowed = || chunks.iter().map(Vec::as_slice);
    for ((level, program), hosts) in put.programs.iter().zip(&put.hosts) {
        let whole = cicero_isa::run(program, input);
        let streamed = cicero_isa::run_chunked(program, borrowed());
        if streamed != whole {
            return diverged(
                format!("stream/interp/{level}"),
                format!("streamed at {splits:?} gives {streamed:?}, whole input gives {whole:?}"),
                put,
                input,
            );
        }
        for host in hosts {
            let host_whole = host.run(input);
            let host_streamed = cicero_hostexec::run_chunked(host, borrowed());
            if host_streamed != host_whole {
                return diverged(
                    format!("stream/host/{level}/{}", host.engine_kind()),
                    format!(
                        "streamed at {splits:?} gives {host_streamed:?}, whole input gives {host_whole:?}"
                    ),
                    put,
                    input,
                );
            }
        }
        for config in sim_matrix() {
            let whole = simulate(program, input, &config);
            let streamed = cicero_sim::simulate_streaming(program, borrowed(), &config);
            if streamed != whole {
                return diverged(
                    format!("stream/sim/{level}/{}/cc{}", config.name(), config.cc_id_bits),
                    format!(
                        "streamed at {splits:?} gives {streamed:?}, whole input gives {whole:?}"
                    ),
                    put,
                    input,
                );
            }
        }
    }
    Outcome::Pass
}

/// The deterministic split vectors every input is checked with: all
/// 1-byte chunks (every boundary, including ones inside a match) and a
/// single middle split.
fn deterministic_splits(input: &[u8]) -> Vec<Vec<usize>> {
    let mut splits = vec![(1..input.len()).collect::<Vec<usize>>()];
    if input.len() >= 2 {
        splits.push(vec![input.len() / 2]);
    }
    splits
}

/// Batch-level determinism: parallel enumeration over the worker pool
/// that serves must be observationally identical to sequential execution.
pub fn check_batch(put: &PatternUnderTest, inputs: &[Vec<u8>]) -> Outcome {
    if inputs.is_empty() {
        return Outcome::Pass;
    }
    let config = ArchConfig::new_organization(4, 1);
    for (level, program) in &put.programs {
        let sequential: Vec<MatchOutcome> = simulate_batch(program, inputs, &config)
            .into_iter()
            .map(MatchOutcome::Complete)
            .collect();
        for jobs in PARALLEL_JOBS {
            let runtime = Runtime::new(RuntimeOptions { jobs, ..RuntimeOptions::default() });
            let parallel = runtime.run_batch_guarded(program, inputs, &config, &Budget::UNLIMITED);
            let mut pairs = sequential.iter().zip(&parallel.outcomes).enumerate();
            if let Some((i, (s, p))) = pairs.find(|(_, (s, p))| s != p) {
                let detail = format!(
                    "input {i} differs at {jobs} workers: sequential {s:?}, parallel {p:?}"
                );
                return diverged(format!("parallel/{level}/jobs{jobs}"), detail, put, &[]);
            }
        }
    }
    Outcome::Pass
}

/// The full check for one pattern and its input set: every per-input cell,
/// the chunk-split-invariance cells at the deterministic splits, plus the
/// batch-level determinism cells. First divergence wins.
pub fn check_all(pattern: &str, inputs: &[Vec<u8>]) -> Outcome {
    check_with_splits(pattern, inputs, &[])
}

/// [`check_all`] plus extra chunk-split vectors: each input is re-checked
/// streamed at every vector in `extra_splits` on top of the deterministic
/// splits (randomized vectors from the fuzzer, committed ones from the
/// corpus).
pub fn check_with_splits(
    pattern: &str,
    inputs: &[Vec<u8>],
    extra_splits: &[Vec<usize>],
) -> Outcome {
    let put = match PatternUnderTest::build(pattern) {
        Ok(put) => put,
        Err(outcome) => return outcome,
    };
    for input in inputs {
        if let Outcome::Diverged(d) = check_case(&put, input) {
            return Outcome::Diverged(d);
        }
        for splits in deterministic_splits(input).iter().chain(extra_splits) {
            if let Outcome::Diverged(d) = check_stream_case(&put, input, splits) {
                return Outcome::Diverged(d);
            }
        }
    }
    check_batch(&put, inputs)
}

fn diverged(cell: String, detail: String, put: &PatternUnderTest, input: &[u8]) -> Outcome {
    let _ = (put, input); // context lives in the reproducer, not the cell
    Outcome::Diverged(Divergence { cell, detail })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_patterns_pass_the_whole_matrix() {
        for pattern in [
            "ab|cd",
            "^(a*)*b$",
            "x(a?|a*)y",
            "[^ab]c",
            "th(is|at|ose)",
            "a{2,4}b?$",
            "ab|",
            "\\xff\\x80*",
        ] {
            let inputs: Vec<Vec<u8>> = vec![
                b"".to_vec(),
                b"ab".to_vec(),
                b"xxaayy".to_vec(),
                b"zcz".to_vec(),
                vec![0xff, 0x80, 0x80],
                vec![b'a'; 40],
            ];
            let outcome = check_all(pattern, &inputs);
            assert_eq!(outcome, Outcome::Pass, "{pattern:?}: {outcome:?}");
        }
    }

    #[test]
    fn apply_splits_partitions_losslessly() {
        let input = b"abcdefgh";
        for splits in [vec![], vec![4], vec![1, 2, 3, 4, 5, 6, 7], vec![7, 3, 3, 99, 0]] {
            let chunks = apply_splits(input, &splits);
            let rejoined: Vec<u8> = chunks.concat();
            assert_eq!(rejoined, input, "splits {splits:?}");
            assert!(chunks.iter().all(|c| !c.is_empty()), "splits {splits:?} made empty chunks");
        }
        assert_eq!(apply_splits(b"", &[1, 2]), Vec::<Vec<u8>>::new());
        assert_eq!(apply_splits(b"ab", &[1]), vec![b"a".to_vec(), b"b".to_vec()]);
    }

    #[test]
    fn stream_cells_pass_for_known_patterns_at_adversarial_splits() {
        let put = PatternUnderTest::build("x(a?|a*)y|th(is|at)").unwrap();
        for input in [b"zzthiszz".as_slice(), b"xay", b"", b"thatthis"] {
            for splits in
                [vec![], vec![1], (1..input.len()).collect::<Vec<usize>>(), vec![input.len() / 2]]
            {
                let outcome = check_stream_case(&put, input, &splits);
                assert_eq!(outcome, Outcome::Pass, "{input:?} at {splits:?}: {outcome:?}");
            }
        }
    }

    #[test]
    fn unparseable_patterns_skip() {
        assert!(matches!(check_all("(", &[]), Outcome::Skip(_)));
        assert!(matches!(check_all("a{9999}{9999}", &[]), Outcome::Skip(_)));
    }

    #[test]
    fn matrix_spans_every_viable_cc_id() {
        let ccs: Vec<u32> = sim_matrix().iter().map(|c| c.cc_id_bits).collect();
        for cc in 1..=3 {
            assert!(ccs.contains(&cc), "matrix misses CC_ID {cc}: {ccs:?}");
        }
        // Exactly one single-core reference cell.
        assert_eq!(sim_matrix().iter().filter(|c| c.total_cores() == 1).count(), 1);
    }

    #[test]
    fn a_wrong_verdict_is_reported_as_a_divergence() {
        // Hand-build a PatternUnderTest whose program is miscompiled: the
        // pattern `ab` paired with a program for `ac`.
        let program = cicero_core::compile("ac").unwrap().into_program();
        let put = PatternUnderTest {
            pattern: "ab".to_owned(),
            oracle: Oracle::new("ab").unwrap(),
            hosts: vec![HostProgram::every_engine(&program)],
            programs: vec![("O2", program)],
        };
        let outcome = check_case(&put, b"zzabzz");
        match outcome {
            Outcome::Diverged(d) => assert!(d.cell.starts_with("interp/"), "{d}"),
            other => panic!("miscompile not caught: {other:?}"),
        }
    }

    #[test]
    fn a_host_engine_disagreement_is_reported_as_a_host_cell() {
        // A correct program paired with a host lowering of a *different*
        // program: the interpreter cells pass, so the first divergence
        // must be attributed to the host column.
        let good = cicero_core::compile("ab").unwrap().into_program();
        let bad = cicero_core::compile("ac").unwrap().into_program();
        let put = PatternUnderTest {
            pattern: "ab".to_owned(),
            oracle: Oracle::new("ab").unwrap(),
            programs: vec![("O2", good)],
            hosts: vec![HostProgram::every_engine(&bad)],
        };
        let outcome = check_case(&put, b"zzabzz");
        match outcome {
            Outcome::Diverged(d) => assert!(d.cell.starts_with("host/"), "{d}"),
            other => panic!("host miscompile not caught: {other:?}"),
        }
    }
}
