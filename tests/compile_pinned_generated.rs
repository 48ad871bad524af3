//! Byte-exact pin of the compiler on generated patterns: 2,000
//! `Generator` patterns (seed 42), compiled alone, in sets of 4 and in
//! sets of 16, each with all optimizations on and with all of them off.
//! Every (shape, options) cell folds its programs, in order, into one
//! FNV-1a-64 digest; a refused compile contributes the name of its error
//! kind instead.
//!
//! A set holding an anchored member is refused, and nearly every run of
//! 16 generated patterns holds one, so the sets are consecutive runs of
//! the patterns a set admits: the 1,229 that compile as a one-member set.
//!
//! The constants were computed before the `cicero` dialect moved from
//! symbolic labels onto blocks and successors, and must never be edited
//! to make a compiler change pass: a digest that moves means some program
//! the hardware runs changed.

use cicero::difftest::Generator;
use cicero_core::{CompileError, Compiler, CompilerOptions};
use cicero_isa::{EncodedProgram, Program};

const PATTERNS: usize = 2_000;
const SEED: u64 = 42;

/// FNV-1a-64, continued from `hash`.
fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |hash, &byte| (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one compile's outcome into `hash`: its length-prefixed encoded
/// program, or its length-prefixed error kind.
fn fold(hash: u64, outcome: Result<&Program, &CompileError>) -> u64 {
    let bytes = match outcome {
        Ok(program) => EncodedProgram::from_program(program).to_bytes(),
        Err(error) => {
            let kind = match error {
                CompileError::Parse(_) => "parse",
                CompileError::Pass(_) => "pass",
                CompileError::Lowering(_) => "lowering",
                CompileError::Codegen(_) => "codegen",
                CompileError::EmptySet => "empty-set",
            };
            kind.as_bytes().to_vec()
        }
    };
    let hash = fnv1a64(hash, &(bytes.len() as u32).to_le_bytes());
    fnv1a64(hash, &bytes)
}

/// `[optimized, unoptimized]` digests of one shape: each pattern alone
/// (`size` 1) or consecutive sets of `size`.
fn digests(patterns: &[&str], size: usize) -> [u64; 2] {
    [CompilerOptions::optimized(), CompilerOptions::unoptimized()].map(|options| {
        let compiler = Compiler::with_options(options);
        if size == 1 {
            patterns.iter().fold(FNV_OFFSET, |hash, pattern| {
                let compiled = compiler.compile(pattern);
                fold(hash, compiled.as_ref().map(|c| c.program()))
            })
        } else {
            patterns.chunks(size).fold(FNV_OFFSET, |hash, set| {
                let compiled = compiler.compile_set(set);
                fold(hash, compiled.as_ref().map(|s| s.program()))
            })
        }
    })
}

#[test]
fn generated_patterns_compile_to_pinned_programs() {
    let mut generator = Generator::new(SEED);
    let patterns: Vec<String> = (0..PATTERNS).map(|_| generator.pattern().0).collect();
    let patterns: Vec<&str> = patterns.iter().map(String::as_str).collect();
    let compiler = Compiler::new();
    let members: Vec<&str> =
        patterns.iter().copied().filter(|p| compiler.compile_set(&[p]).is_ok()).collect();
    assert_eq!(members.len(), 1_229, "the patterns a one-member set admits changed");
    let pinned: [(&str, usize, [u64; 2]); 3] = [
        ("alone", 1, [0x79be_b1d1_796c_c44c, 0xc94c_c7e9_4f75_f0fa]),
        ("sets of 4", 4, [0xe3c5_6841_3fb0_2313, 0x0f28_abd3_cb80_7b25]),
        ("sets of 16", 16, [0x0d34_def9_3c86_8f66, 0x58cf_c723_3b38_ceb2]),
    ];
    let all: Vec<(&str, [u64; 2])> = pinned
        .iter()
        .map(|&(shape, size, _)| {
            (shape, digests(if size == 1 { &patterns } else { &members }, size))
        })
        .collect();
    for ((shape, _, want), (_, got)) in pinned.iter().zip(&all) {
        assert_eq!(got, want, "{shape}: a program changed; all cells: {all:#018x?}");
    }
}
