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
        ("registry-small", 0xf5a4_5f8d_b34f_6d46),
        ("bulk-scan", 0x6c2c_f90f_4417_1078),
        ("dsa-sim", 0x1a7c_417c_3646_5e80),
    ];
    assert_pinned(&benchmark_cells(), &pinned, true);
}

#[test]
fn corpus_sets_lower_to_pinned_engines() {
    let pinned = [
        ("host-bit-wide-bounded-gap-set", 0x9e30_7182_2aeb_054d),
        ("host-bit-wide-bulk-scan-signatures", 0x4472_ff1c_725b_7352),
        ("registry-high-byte-artifact", 0x7eaa_6b2a_e5f9_6628),
        ("registry-shared-cache-set", 0x574b_9cff_127d_f817),
    ];
    assert_pinned(&corpus_cells(), &pinned, true);
}

#[test]
fn inline_shaped_sets_lower_to_pinned_engines() {
    let pinned = [
        ("brill4-0", 0xfe43_90cc_3b32_d1ca),
        ("brill4-1", 0x11eb_6e4d_bdc8_86a4),
        ("brill4-2", 0x0c36_1ce8_6379_e94c),
        ("brill4-3", 0x3795_b024_cf7e_7d4d),
        ("brill4-4", 0xfd97_a558_83c1_d482),
        ("brill4-5", 0xfa28_471e_fea6_e2ae),
        ("brill4-6", 0xc371_db2c_7354_4ed0),
        ("brill4-7", 0x73d7_1cdb_a3cf_8a39),
        ("brill4-8", 0x818e_88ee_d4ba_b5e5),
        ("brill4-9", 0xaba0_370f_a674_052c),
        ("brill4-10", 0x5ea8_fe2f_6a63_c627),
        ("brill4-11", 0x6407_db80_44c0_e0c2),
        ("brill4-12", 0x2fa9_521f_9b7b_9701),
        ("brill4-13", 0x6067_9bd3_c983_299f),
        ("brill4-14", 0x8d88_a25d_5b00_b818),
        ("brill4-15", 0xc8c4_4f3a_3b7f_b5db),
        ("brill4-16", 0x1d71_de75_cd46_2f95),
        ("brill4-17", 0x1798_c295_9f4c_3a35),
        ("brill4-18", 0xcb11_7705_e16c_611e),
        ("brill4-19", 0xa181_d63f_d3f2_aac9),
        ("brill4-20", 0x94dc_88e5_3c71_1a8a),
        ("brill4-21", 0x19f3_2e8f_53b8_9d5b),
        ("brill4-22", 0xee88_7fd1_eccb_6c08),
        ("brill4-23", 0xdd82_4f8d_f610_c1a9),
        ("brill4-24", 0x3869_7705_90a2_b126),
        ("brill4-25", 0x6650_fddb_6307_5b49),
        ("brill4-26", 0x551b_164b_57a6_4535),
        ("brill4-27", 0x1bc0_73cc_0d04_82a7),
        ("brill4-28", 0xed8d_c53b_32bd_a11d),
        ("brill4-29", 0x4775_b32c_c894_1595),
        ("brill4-30", 0xeff7_3e27_751d_966a),
        ("brill4-31", 0xd15b_11c2_0fe4_eee7),
        ("brill16-0", 0x4768_5923_b998_07f7),
        ("brill16-1", 0xa42c_dc9e_9379_3abd),
        ("brill16-2", 0x830d_607d_bd74_36fb),
        ("brill16-3", 0x69fb_623d_102a_79cb),
    ];
    let kinds = assert_pinned(&inline_cells(), &pinned, true);
    assert!(kinds.iter().all(|&kind| kind == EngineKind::BitWide), "{kinds:?}");
}
