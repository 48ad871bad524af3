//! Byte-exact pin of `Compiler::compile_set`: one FNV-1a-64 fingerprint
//! of the encoded program per (pattern set, compiler options) cell.
//!
//! The sets are the served benchmark's three suites (`registry-small`,
//! `bulk-scan`, `dsa-sim`, all at suite seed 7) plus every multi-pattern
//! case of the difftest corpus, each compiled with all optimizations on
//! and with all of them off. The constants were generated before the set
//! compiler's back end moved onto the pass manager and must never be
//! edited to make a compiler change pass: a fingerprint that moves means
//! the program the hardware runs changed.

use cicero::difftest;
use cicero_core::{Compiler, CompilerOptions};
use cicero_isa::EncodedProgram;
use workloads::Benchmark;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `[optimized, unoptimized]` fingerprints of one set.
fn fingerprints(patterns: &[String]) -> [u64; 2] {
    [CompilerOptions::optimized(), CompilerOptions::unoptimized()].map(|options| {
        let set = Compiler::with_options(options).compile_set(patterns).unwrap();
        fnv1a64(&EncodedProgram::from_program(set.program()).to_bytes())
    })
}

#[test]
fn benchmark_sets_compile_to_pinned_programs() {
    let cells = [
        (
            "registry-small",
            Benchmark::brill(7, 4, 0),
            [0x0160_a8ce_0e0b_df1c, 0xf16d_6817_cc90_8adb],
        ),
        (
            "bulk-scan",
            Benchmark::protomata(7, 16, 0),
            [0xd2ff_08e9_7cac_3e77, 0x6c16_e9a3_65c2_ebdb],
        ),
        ("dsa-sim", Benchmark::protomata(7, 8, 0), [0x890d_4b0c_9b65_21e2, 0xc3cc_eea2_5bea_7ef4]),
    ];
    let all: Vec<_> =
        cells.iter().map(|(name, bench, _)| (*name, fingerprints(&bench.patterns))).collect();
    for ((name, _, want), (_, got)) in cells.iter().zip(&all) {
        assert_eq!(got, want, "{name}: set program changed; all cells: {all:#018x?}");
    }
}

#[test]
fn corpus_sets_compile_to_pinned_programs() {
    let pinned = [
        ("host-bit-wide-bounded-gap-set", [0x3176_20b4_1a95_aae9, 0x3cb2_86f2_777f_91d1]),
        ("host-bit-wide-bulk-scan-signatures", [0xd2ff_08e9_7cac_3e77, 0x6c16_e9a3_65c2_ebdb]),
        ("registry-high-byte-artifact", [0xd07a_b4c3_3ae3_5676, 0xe19a_5603_be7a_8e17]),
        ("registry-shared-cache-set", [0xadde_1bce_6dcf_bab2, 0xdc67_feed_591b_4202]),
    ];
    let corpus = difftest::load_dir(&difftest::default_corpus_dir()).unwrap();
    let all: Vec<(String, [u64; 2])> = corpus
        .iter()
        .map(|case| (case.name.clone(), difftest::split_set(&case.pattern)))
        .filter(|(_, members)| members.len() > 1)
        .map(|(name, members)| (name, fingerprints(&members)))
        .collect();
    let names: Vec<&str> = all.iter().map(|(name, _)| name.as_str()).collect();
    let pinned_names: Vec<&str> = pinned.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        names, pinned_names,
        "every multi-pattern corpus case is pinned; all cells: {all:#018x?}"
    );
    for ((name, got), (_, want)) in all.iter().zip(&pinned) {
        assert_eq!(got, want, "{name}: set program changed; all cells: {all:#018x?}");
    }
}
