//! Byte-exact pin of the host lowering of `compile_set` programs: one
//! FNV-1a-64 fingerprint per pattern set over the encoded program (all
//! optimizations on, and all off), the engine the lowering selects, its
//! state and byte-class counts, its prefilter stop bytes, and `run_all`
//! (first stop, bytes examined, id set) on seeded suite chunks. The cells
//! and the fingerprint are `tests/host_cells/mod.rs`'s.
//!
//! The constants must never be edited to make a change pass: a
//! fingerprint that moves means the program, the engine, or what it
//! reports changed. A change that means to move the engine's shape holds
//! its outcomes to `tests/host_outcomes_pinned.rs` unedited, and lists
//! every cell's engine, states and classes before and after in
//! CHANGES.md.

mod host_cells;

use cicero_hostexec::EngineKind;
use host_cells::{assert_pinned, benchmark_cells, corpus_cells, inline_cells};

#[test]
fn benchmark_sets_lower_to_pinned_engines() {
    let pinned = [
        ("registry-small", 0x46e8_e4b9_33ba_4352),
        ("bulk-scan", 0x6c2c_f90f_4417_1078),
        ("dsa-sim", 0x8602_e70a_0921_b052),
    ];
    assert_pinned(&benchmark_cells(), &pinned, true);
}

#[test]
fn corpus_sets_lower_to_pinned_engines() {
    let pinned = [
        ("host-bit-wide-bounded-gap-set", 0x015e_3fb6_53ae_6117),
        ("host-bit-wide-bulk-scan-signatures", 0x4472_ff1c_725b_7352),
        ("registry-high-byte-artifact", 0x3d87_f986_8bd2_b0e6),
        ("registry-shared-cache-set", 0x3471_6cce_95a8_6215),
    ];
    assert_pinned(&corpus_cells(), &pinned, true);
}

#[test]
fn inline_shaped_sets_lower_to_pinned_engines() {
    let pinned = [
        ("brill4-0", 0xb152_34dd_0240_657e),
        ("brill4-1", 0x581b_9a64_e4eb_e4bc),
        ("brill4-2", 0x381d_eb4f_a766_7972),
        ("brill4-3", 0x6758_ab5d_5cd2_29ad),
        ("brill4-4", 0x2d8e_8c9f_898d_f65e),
        ("brill4-5", 0x4e23_9596_9007_65c2),
        ("brill4-6", 0x5a62_af54_d1d8_0ace),
        ("brill4-7", 0xf84d_016f_1d43_6ef1),
        ("brill4-8", 0x5ced_051b_4ffd_0f4d),
        ("brill4-9", 0xe84a_0a23_4b5c_2584),
        ("brill4-10", 0xb824_6131_702e_0a5b),
        ("brill4-11", 0x38db_e2b4_45fe_14f8),
        ("brill4-12", 0x982f_97cf_6b09_5643),
        ("brill4-13", 0x4f17_332f_58f8_bbb7),
        ("brill4-14", 0xd630_61bc_b6a9_1230),
        ("brill4-15", 0xf057_2b5a_de86_58a3),
        ("brill4-16", 0x7ff2_e43d_f671_6c65),
        ("brill4-17", 0x149c_5205_b829_8e49),
        ("brill4-18", 0xfdd1_4880_fc97_e06a),
        ("brill4-19", 0x2ada_28e7_7da9_ec03),
        ("brill4-20", 0xe498_064d_542e_71fa),
        ("brill4-21", 0x54a6_a1d6_64a3_96e9),
        ("brill4-22", 0x5e6c_d30e_93e0_f3e4),
        ("brill4-23", 0xbe74_d811_e50b_eebb),
        ("brill4-24", 0xd996_eafb_7bd4_0ab0),
        ("brill4-25", 0x428e_76ef_74b2_1e11),
        ("brill4-26", 0xf940_0ce1_bbcf_51a3),
        ("brill4-27", 0x2a29_b540_0c0b_cd5f),
        ("brill4-28", 0xc924_e7fc_0267_f3bd),
        ("brill4-29", 0xd63e_19ec_b462_e11d),
        ("brill4-30", 0xd1a7_d89a_2cbf_6ca8),
        ("brill4-31", 0x7cee_cbbb_fa94_d4f7),
        ("brill16-0", 0x4768_5923_b998_07f7),
        ("brill16-1", 0xa42c_dc9e_9379_3abd),
        ("brill16-2", 0x830d_607d_bd74_36fb),
        ("brill16-3", 0x69fb_623d_102a_79cb),
    ];
    let kinds = assert_pinned(&inline_cells(), &pinned, true);
    for kind in [EngineKind::Bit64, EngineKind::Bit128, EngineKind::BitWide] {
        assert!(kinds.contains(&kind), "no set lands on {kind}: {kinds:?}");
    }
}
