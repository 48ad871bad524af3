//! Outcome-only pin of the host lowering of `compile_set` programs: one
//! FNV-1a-64 fingerprint per pattern set over the encoded program (all
//! optimizations on, and all off) and `run_all` (first stop, bytes
//! examined, id set) on seeded suite chunks. The cells and the
//! fingerprint are `tests/host_cells/mod.rs`'s, the same as
//! `tests/host_lowering_pinned.rs`'s, minus the engine's shape: a change
//! to the lowering may move the engine, its states or its byte classes,
//! but never what it reports. The constants were generated before such a
//! change and must never be edited to make one pass.

mod host_cells;

use host_cells::{assert_pinned, benchmark_cells, corpus_cells, inline_cells};

#[test]
fn benchmark_sets_report_pinned_outcomes() {
    let pinned = [
        ("registry-small", 0x3f2c_e844_8f24_0db6),
        ("bulk-scan", 0x440c_cecb_874d_d4ab),
        ("dsa-sim", 0x3a97_beb8_60b2_67a7),
    ];
    assert_pinned(&benchmark_cells(), &pinned, false);
}

#[test]
fn corpus_sets_report_pinned_outcomes() {
    let pinned = [
        ("host-bit-wide-bounded-gap-set", 0x3431_d543_94fe_c515),
        ("host-bit-wide-bulk-scan-signatures", 0xd7ef_8e54_7ed6_6809),
        ("registry-high-byte-artifact", 0xa78f_eaf4_acf4_7380),
        ("registry-shared-cache-set", 0x755f_e7bf_10e1_9165),
    ];
    assert_pinned(&corpus_cells(), &pinned, false);
}

#[test]
fn inline_shaped_sets_report_pinned_outcomes() {
    let pinned = [
        ("brill4-0", 0x343a_4dba_a255_9be6),
        ("brill4-1", 0x527f_72fd_3bfd_9074),
        ("brill4-2", 0xb80f_e7f0_859b_4810),
        ("brill4-3", 0xd47b_1827_8dbe_a2fd),
        ("brill4-4", 0x331a_5c7b_939e_98ea),
        ("brill4-5", 0xee28_3dd9_18da_d66e),
        ("brill4-6", 0xf6fd_dd15_4769_ff54),
        ("brill4-7", 0x70be_c6ca_ce2b_aeb5),
        ("brill4-8", 0x4ee5_40c0_7b31_bdb5),
        ("brill4-9", 0x1b53_687e_2a9e_0cc8),
        ("brill4-10", 0xef43_76cd_5770_f6ef),
        ("brill4-11", 0xae2c_2da8_19c9_6890),
        ("brill4-12", 0xab6d_92bb_a866_3881),
        ("brill4-13", 0xc93e_9d22_d34e_c3ff),
        ("brill4-14", 0x0a05_0855_cc04_8014),
        ("brill4-15", 0x8695_d06c_0d50_ccbf),
        ("brill4-16", 0x198d_fdfe_8aa8_69d5),
        ("brill4-17", 0xfb13_a973_d736_94bd),
        ("brill4-18", 0xc38d_f680_3a57_9e66),
        ("brill4-19", 0x71cc_a5b8_c40e_569b),
        ("brill4-20", 0x15bf_b9ae_be42_9326),
        ("brill4-21", 0xc678_1ef9_0b99_cb15),
        ("brill4-22", 0x153c_839d_4837_c5a8),
        ("brill4-23", 0xafa0_b727_5668_4d39),
        ("brill4-24", 0xdaf4_15e6_9730_6ffc),
        ("brill4-25", 0x94f4_cd47_e2fd_9be1),
        ("brill4-26", 0xc6e0_6428_104a_1763),
        ("brill4-27", 0x5b50_aafc_ee30_768b),
        ("brill4-28", 0x988a_10bf_6d3e_d549),
        ("brill4-29", 0x19ad_ea62_03c4_05ed),
        ("brill4-30", 0xf87d_086e_8fe9_5b7e),
        ("brill4-31", 0x871d_f7e6_dcf5_7bd7),
        ("brill16-0", 0x8e0d_13f9_4063_4753),
        ("brill16-1", 0xb9d8_6f07_e208_24ff),
        ("brill16-2", 0xfde3_b300_286b_5243),
        ("brill16-3", 0x3a0a_0414_c79b_92cd),
    ];
    assert_pinned(&inline_cells(), &pinned, false);
}
