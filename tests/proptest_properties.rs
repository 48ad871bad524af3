//! Randomized properties of the pipeline stages, one seeded loop each.
//!
//! Patterns, inputs and chunk splits come from difftest's [`Generator`],
//! which covers the full supported grammar; arbitrary ISA programs and
//! front-end strings come from a seeded `StdRng`. Every loop is a pure
//! function of [`SEED`] and names the failing case's index, so a failure
//! reproduces on rerun; `cicero_difftest::shrink` minimizes a failing
//! pattern.
//!
//! What difftest's cells check — the new compiler against the oracle at
//! `O0`/`O2`, every host engine against the oracle, and chunk-split
//! invariance — runs here as one loop over [`check_with_splits`]. The
//! other loops hold what no cell covers.

use cicero_difftest::{apply_splits, check_with_splits, Generator, Outcome};
use cicero_hostexec::HostProgram;
use cicero_isa::{Instruction, Program};
use cicero_sim::{simulate, simulate_streaming, ArchConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SEED: u64 = 42;

/// Generated patterns per pattern-level property, each with its
/// generator input set (five or six inputs).
const PATTERNS: usize = 64;

/// Cases per property over arbitrary programs and front-end strings.
const RAW_CASES: usize = 48;

/// The simulator organization the difftest matrix (`sim_matrix`) lacks.
fn new_8x1() -> ArchConfig {
    ArchConfig::new_organization(8, 1)
}

/// `pattern` compiled with every optimization; a failure names the case.
fn compiled(pattern: &str, case: usize) -> Program {
    cicero_core::compile(pattern)
        .unwrap_or_else(|e| panic!("seed {SEED} case {case}: {pattern:?}: {e}"))
        .into_program()
}

/// The difftest matrix on generated patterns: the new compiler at both
/// levels, every host engine and the simulator matrix against the oracle,
/// each whole and streamed at the deterministic splits plus one generated
/// split vector.
#[test]
fn generated_patterns_pass_the_difftest_matrix() {
    let mut generator = Generator::new(SEED);
    for case in 0..PATTERNS {
        let (pattern, ast) = generator.pattern();
        let inputs = generator.inputs(&ast);
        let splits = generator.splits(&inputs);
        let outcome = check_with_splits(&pattern, &inputs, &[splits]);
        assert_eq!(outcome, Outcome::Pass, "seed {SEED} case {case}: {pattern:?}");
    }
}

/// The legacy compiler, with and without its optimizations, accepts
/// exactly the inputs the reference Pike VM accepts. (The new compiler
/// is the matrix's `interp/*` cells.)
#[test]
fn compilers_match_oracle() {
    let mut generator = Generator::new(SEED);
    for case in 0..PATTERNS {
        let (pattern, ast) = generator.pattern();
        let oracle = regex_oracle::Oracle::from_ast(&ast);
        let inputs = generator.inputs(&ast);
        for optimize in [true, false] {
            let program = cicero_legacy::LegacyCompiler::new(optimize)
                .compile(&pattern)
                .unwrap_or_else(|e| panic!("seed {SEED} case {case}: {pattern:?}: {e:?}"));
            for input in &inputs {
                assert_eq!(
                    cicero_isa::accepts(&program, input),
                    oracle.is_match(input),
                    "seed {SEED} case {case}: old (optimize {optimize}) on {pattern:?} / {input:?}"
                );
            }
        }
    }
}

/// The cycle-level simulator gives the interpreter's verdict on NEW 8x1.
/// (The matrix's `sim/*` cells cover its other organizations.)
#[test]
fn simulator_matches_interpreter() {
    let mut generator = Generator::new(SEED);
    for case in 0..PATTERNS {
        let (pattern, ast) = generator.pattern();
        let program = compiled(&pattern, case);
        for input in generator.inputs(&ast) {
            let report = simulate(&program, &input, &new_8x1());
            let at = format!("seed {SEED} case {case}: {pattern:?} / {input:?}");
            assert!(!report.hit_cycle_limit, "{at}");
            assert_eq!(report.accepted, cicero_isa::accepts(&program, &input), "{at}");
        }
    }
}

/// Chunk-split invariance of the resumable simulator on NEW 8x1: the
/// streamed report is byte-identical to the whole-input one. (The
/// matrix's `stream/*` cells cover the interpreter, the host engines and
/// the other organizations.)
#[test]
fn streaming_is_chunk_split_invariant() {
    let mut generator = Generator::new(SEED);
    for case in 0..PATTERNS {
        let (pattern, ast) = generator.pattern();
        let program = compiled(&pattern, case);
        let inputs = generator.inputs(&ast);
        let splits = generator.splits(&inputs);
        for input in &inputs {
            let chunks = apply_splits(input, &splits);
            let streamed =
                simulate_streaming(&program, chunks.iter().map(Vec::as_slice), &new_8x1());
            assert_eq!(
                streamed,
                simulate(&program, input, &new_8x1()),
                "seed {SEED} case {case}: {pattern:?} / {input:?} split at {splits:?}"
            );
        }
    }
}

/// Jump Simplification never increases code size: its rules only
/// delete (jump-to-next, dead code) or replace in place (threading,
/// acceptance duplication). `D_offset` improves in aggregate
/// (Figure 10, checked by the fig10 bench) but not pointwise — jump
/// threading can trade two short hops for one long one, e.g. on
/// `x(a?|a*)y`.
#[test]
fn jump_simplification_never_grows_code() {
    let unoptimized = cicero_core::CompilerOptions::unoptimized();
    let only_js = cicero_core::CompilerOptions { jump_simplification: true, ..unoptimized };
    let mut generator = Generator::new(SEED);
    for case in 0..PATTERNS {
        let (pattern, _) = generator.pattern();
        let size = |options| {
            cicero_core::Compiler::with_options(options)
                .compile(&pattern)
                .unwrap_or_else(|e| panic!("seed {SEED} case {case}: {pattern:?}: {e}"))
                .code_size()
        };
        assert!(size(only_js) <= size(unoptimized), "seed {SEED} case {case}: {pattern:?}");
    }
}

/// The compiled binary round-trips through the 16-bit wire encoding.
#[test]
fn binary_roundtrip() {
    let mut generator = Generator::new(SEED);
    for case in 0..PATTERNS {
        let (pattern, _) = generator.pattern();
        let program = compiled(&pattern, case);
        let bytes = cicero_isa::EncodedProgram::from_program(&program).to_bytes();
        let back = cicero_isa::EncodedProgram::from_bytes(&bytes).and_then(|e| e.decode());
        assert_eq!(back, Ok(program), "seed {SEED} case {case}: {pattern:?}");
    }
}

/// The mlir-lite textual printer/parser round-trips the regex IR.
#[test]
fn ir_text_roundtrip() {
    let mut generator = Generator::new(SEED);
    for case in 0..PATTERNS {
        let (pattern, ast) = generator.pattern();
        let ir = regex_dialect::ast_to_ir(&ast);
        assert_eq!(mlir_lite::parse(&ir.to_text()), Ok(ir), "seed {SEED} case {case}: {pattern:?}");
    }
}

/// `ir_to_ast` inverts `ast_to_ir` up to oracle equivalence.
#[test]
fn ast_ir_ast_equivalence() {
    let mut generator = Generator::new(SEED);
    for case in 0..PATTERNS {
        let (pattern, ast) = generator.pattern();
        let back = regex_dialect::ir_to_ast(&regex_dialect::ast_to_ir(&ast));
        let a = regex_oracle::Oracle::from_ast(&ast);
        let b = regex_oracle::Oracle::from_ast(&back);
        for input in generator.inputs(&ast) {
            assert_eq!(
                a.is_match(&input),
                b.is_match(&input),
                "seed {SEED} case {case}: {pattern:?} / {input:?}"
            );
        }
    }
}

/// On multi-pattern sets of one to three generated unanchored members,
/// every host engine's `run_all` reports the interpreter's per-pattern id
/// set and verdict — the invariant the server's `/scan` endpoint relies
/// on when it swaps backends per request.
#[test]
fn host_run_all_matches_interpreter_on_sets() {
    let mut generator = Generator::new(SEED);
    for case in 0..PATTERNS {
        let mut patterns = Vec::new();
        let mut inputs = Vec::new();
        while patterns.len() < 1 + case % 3 {
            let (pattern, ast) = generator.pattern();
            // A set takes unanchored members only.
            if ast.has_prefix && ast.has_suffix {
                inputs.extend(generator.inputs(&ast));
                patterns.push(pattern);
            }
        }
        let set = cicero_core::Compiler::new()
            .compile_set(&patterns)
            .unwrap_or_else(|e| panic!("seed {SEED} case {case}: {patterns:?}: {e}"));
        let program = set.program();
        for host in HostProgram::every_engine(program) {
            for input in &inputs {
                let want = cicero_isa::run_all(program, input);
                let got = host.run_all(input);
                let at = format!("seed {SEED} case {case}: {patterns:?} / {input:?}");
                let kind = host.engine_kind();
                assert_eq!(got.first.accepted, want.accepted, "{kind} verdict, {at}");
                assert_eq!(got.matched_ids, want.matched_ids, "{kind} id set, {at}");
            }
        }
    }
}

/// An arbitrary *valid* ISA program (not necessarily compiler output):
/// 1–31 random instructions with in-range targets, then `AcceptPartial`,
/// so it reaches shapes the compilers never emit (split chains into
/// jumps, `NotMatch` loops…).
fn random_program(rng: &mut StdRng) -> Program {
    let len = rng.random_range(1..32usize);
    let mut instructions: Vec<Instruction> = (0..len)
        .map(|_| {
            let target = rng.random_range(0..=len as u16);
            let c = b'a' + rng.random_range(0..4u8);
            match rng.random_range(0..7u8) {
                0 => Instruction::MatchAny,
                1 => Instruction::Match(c),
                2 => Instruction::NotMatch(c),
                3 => Instruction::Split(target),
                4 => Instruction::Jump(target),
                5 => Instruction::Accept,
                _ => Instruction::AcceptPartialId(u16::from(c)),
            }
        })
        .collect();
    instructions.push(Instruction::AcceptPartial);
    Program::from_instructions(instructions).expect("targets in range")
}

/// The cycle-level machine implements exactly the ISA interpreter's
/// semantics for arbitrary valid programs, on both organizations.
#[test]
fn simulator_matches_interpreter_on_arbitrary_programs() {
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..RAW_CASES {
        let program = random_program(&mut rng);
        let len = rng.random_range(0..24usize);
        let input: Vec<u8> = (0..len).map(|_| b'a' + rng.random_range(0..4u8)).collect();
        let expected = cicero_isa::run(&program, &input);
        for config in [
            ArchConfig::old_organization(1),
            ArchConfig::old_organization(3),
            ArchConfig::new_organization(4, 1),
            ArchConfig::new_organization(8, 2),
        ] {
            let report = simulate(&program, &input, &config);
            let at =
                format!("seed {SEED} case {case}: {} on {program:?} / {input:?}", config.name());
            assert!(!report.hit_cycle_limit, "{at}");
            assert_eq!(report.accepted, expected.accepted, "{at}");
        }
    }
}

/// The front-end never panics, whatever it is fed: up to 16 characters,
/// printable ASCII with one in eight any Unicode scalar value.
#[test]
fn frontend_is_panic_free() {
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..RAW_CASES {
        let pattern: String = (0..rng.random_range(0..=16))
            .filter_map(|_| {
                if rng.random_bool(0.125) {
                    char::from_u32(rng.random_range(0..0x11_0000u32))
                } else {
                    Some(char::from(rng.random_range(b' '..=b'~')))
                }
            })
            .collect();
        let parsed = std::panic::catch_unwind(|| regex_frontend::parse(&pattern));
        assert!(parsed.is_ok(), "seed {SEED} case {case}: the front end panicked on {pattern:?}");
    }
}

/// Whenever the new front-end accepts a pattern, the legacy one agrees
/// (and vice versa) — the compilers share one input language.
#[test]
fn frontends_accept_the_same_language() {
    let alphabet = b"-abcde().|*+?{}[]^$\\0123456789";
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..RAW_CASES {
        let pattern: String = (0..rng.random_range(0..=12))
            .map(|_| char::from(alphabet[rng.random_range(0..alphabet.len())]))
            .collect();
        let new = regex_frontend::parse(&pattern).is_ok();
        let old = cicero_legacy::parser::parse(&pattern).is_ok();
        assert_eq!(new, old, "seed {SEED} case {case}: {pattern:?}");
    }
}
