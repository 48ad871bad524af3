//! Byte-exact pin of the host lowering of `compile_set` programs: one
//! FNV-1a-64 fingerprint per pattern set over the encoded program (all
//! optimizations on, and all off), the engine the lowering selects, its
//! state and byte-class counts, its prefilter stop bytes, and `run_all`
//! (first stop, bytes examined, id set) on seeded suite chunks.
//!
//! The sets are the served benchmark's three suites (`registry-small`,
//! `bulk-scan`, `dsa-sim`, suite seed 7), every multi-pattern case of the
//! difftest corpus, and 32 four-rule BRILL sets drawn from a seeded rng
//! (the shape of an inline `/scan` request; they land on all three
//! bit-parallel tiers). The constants were generated before the lowering
//! and Jump Simplification were reworked for speed and must never be
//! edited to make a change pass: a fingerprint that moves means the
//! program, the engine, or what it reports changed.

use cicero::difftest;
use cicero_core::{Compiler, CompilerOptions};
use cicero_hostexec::{EngineKind, HostProgram};
use cicero_isa::EncodedProgram;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::{brill, Benchmark};

fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |hash, &byte| (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The fingerprint of one set scanned over `chunks`, and the engine its
/// optimized program lowers to.
fn fingerprint(patterns: &[String], chunks: &[Vec<u8>]) -> (u64, EngineKind) {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut kind = EngineKind::Interp;
    for options in [CompilerOptions::unoptimized(), CompilerOptions::optimized()] {
        let set = Compiler::with_options(options).compile_set(patterns).unwrap();
        hash = fnv1a64(hash, &EncodedProgram::from_program(set.program()).to_bytes());
        let host = HostProgram::compile(set.program());
        kind = host.engine_kind();
        let shape = format!(
            "{kind}/{}/{}/{:?};",
            host.state_count(),
            host.byte_class_count(),
            host.prefilter_stop_bytes()
        );
        hash = fnv1a64(hash, shape.as_bytes());
        for chunk in chunks {
            let out = host.run_all(chunk);
            let first = out.first;
            let row = format!(
                "{}/{:?}/{:?}/{}/{:?};",
                first.accepted,
                first.match_position,
                first.matched_id,
                out.examined,
                out.matched_ids
            );
            hash = fnv1a64(hash, row.as_bytes());
        }
    }
    (hash, kind)
}

/// `chunks` plus one chunk per member with its witness planted.
fn with_witnesses(patterns: &[String], chunks: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut all = chunks.to_vec();
    all.extend(Benchmark::from_patterns(patterns).chunks);
    all
}

#[test]
fn benchmark_sets_lower_to_pinned_engines() {
    let cells = [
        ("registry-small", Benchmark::brill(7, 4, 16), 0xefbd_cdd4_536d_95ca),
        ("bulk-scan", Benchmark::protomata(7, 16, 16), 0x1f4f_19f9_8e16_d26a),
        ("dsa-sim", Benchmark::protomata(7, 8, 16), 0xb937_2d2b_1d14_8832),
    ];
    let all: Vec<(&str, u64)> = cells
        .iter()
        .map(|(name, bench, _)| {
            (*name, fingerprint(&bench.patterns, &with_witnesses(&bench.patterns, &bench.chunks)).0)
        })
        .collect();
    for ((name, _, want), (_, got)) in cells.iter().zip(&all) {
        assert_eq!(got, want, "{name}: host lowering changed; all cells: {all:#018x?}");
    }
}

#[test]
fn corpus_sets_lower_to_pinned_engines() {
    let pinned: [(&str, u64); 3] = [
        ("host-bit-wide-bounded-gap-set", 0x1a8b_454a_664c_5d3d),
        ("registry-high-byte-artifact", 0x3d87_f986_8bd2_b0e6),
        ("registry-shared-cache-set", 0x3471_6cce_95a8_6215),
    ];
    let text = Benchmark::brill(7, 4, 8).chunks;
    let corpus = difftest::load_dir(&difftest::default_corpus_dir()).unwrap();
    let all: Vec<(String, u64)> = corpus
        .iter()
        .map(|case| (case.name.clone(), difftest::split_set(&case.pattern)))
        .filter(|(_, members)| members.len() > 1)
        .map(|(name, members)| (name, fingerprint(&members, &with_witnesses(&members, &text)).0))
        .collect();
    let names: Vec<&str> = all.iter().map(|(name, _)| name.as_str()).collect();
    let pinned_names: Vec<&str> = pinned.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, pinned_names, "every multi-pattern corpus case is pinned; all: {all:#018x?}");
    for ((name, got), (_, want)) in all.iter().zip(&pinned) {
        assert_eq!(got, want, "{name}: host lowering changed; all cells: {all:#018x?}");
    }
}

#[test]
fn inline_shaped_sets_lower_to_pinned_engines() {
    let pinned: [u64; 32] = [
        0xc2a0_d3b5_3a6a_18f8,
        0xeb13_0c00_87a6_4516,
        0x6120_d627_a072_ce08,
        0xd667_f61c_1d01_47bd,
        0xe9bd_2e58_8a71_6970,
        0x4048_fd12_f818_7208,
        0x5dec_b040_7837_90d8,
        0xf487_c5ff_2eb7_f1db,
        0x7e75_d497_c0ee_43cb,
        0xf338_ac08_eab2_a5ac,
        0xc014_1790_5f53_a361,
        0x420d_52c5_51b7_1dce,
        0xc747_9196_d40a_4351,
        0x630c_95c1_aaae_111f,
        0x057d_8ab0_2748_bdf4,
        0x6814_07eb_915f_c105,
        0x9612_e341_5e42_f339,
        0xc7c9_a271_496a_bdd1,
        0x12e8_4f62_65da_bf38,
        0xfdbe_af85_9fed_3b11,
        0x0c8e_7e7c_355c_668e,
        0x9012_95c9_ce1f_0069,
        0x1567_97c0_c967_9060,
        0x3538_4f81_f332_055d,
        0x2654_4f73_bedc_6038,
        0x428e_76ef_74b2_1e11,
        0xbfb3_1750_da68_6a0b,
        0x9e33_1754_2e9f_f765,
        0x48c0_231f_728f_99b3,
        0x3dfa_f7ac_3346_c033,
        0xa9fe_2ee6_31b5_a596,
        0xf27f_a766_3333_19bd,
    ];
    let text = Benchmark::brill(7, 4, 8).chunks;
    let mut rng = StdRng::seed_from_u64(7);
    let mut kinds = Vec::new();
    let all: Vec<u64> = (0..pinned.len())
        .map(|_| {
            let set: Vec<String> = (0..4).map(|_| brill::rule(&mut rng)).collect();
            let (hash, kind) = fingerprint(&set, &with_witnesses(&set, &text));
            kinds.push(kind);
            hash
        })
        .collect();
    for kind in [EngineKind::Bit64, EngineKind::Bit128, EngineKind::BitWide] {
        assert!(kinds.contains(&kind), "no set lands on {kind}: {kinds:?}");
    }
    for (index, (got, want)) in all.iter().zip(&pinned).enumerate() {
        assert_eq!(got, want, "set {index}: host lowering changed; all cells: {all:#018x?}");
    }
}
