//! Bit-exact pin of the cycle simulator: one FNV-1a-64 fingerprint per
//! (workload set, architecture) cell over the `Debug` text of everything
//! the machine can report — warm batch reports, traced runs event by
//! event, and a 7-byte-split streamed run.
//!
//! `tests/workloads_golden.rs` pins NEW 16x1 totals and one report; this
//! covers what it does not: multi-engine rings, the old organization,
//! `dedup = false` at the cycle limit, and non-default `lb_*`/i-cache
//! settings. The constants were generated on the `BTreeMap`/`HashMap`
//! machine and must never be edited to make a simulator change pass: a
//! fingerprint that moves means a report, a trace event or the streaming
//! pause/resume contract changed.

use cicero_core::Compiler;
use cicero_sim::{simulate_streaming, ArchConfig, CacheConfig, Machine};
use workloads::Benchmark;

/// Full passes over every chunk on one warm machine.
const WARM_PASSES: usize = 3;
/// Leading chunks that are also traced and streamed.
const TRACED_CHUNKS: usize = 3;
/// Streaming split: small and coprime to the window sizes, so pauses land
/// at every window offset.
const STREAM_SPLIT: usize = 7;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `text` plus a terminator, so record boundaries are hashed.
    fn write(&mut self, text: &str) {
        for byte in text.bytes().chain([0xff]) {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The ten architecture cells, in the order of the pinned constants.
fn configs() -> Vec<ArchConfig> {
    let mut no_dedup = ArchConfig::new_organization(8, 1);
    no_dedup.dedup = false;
    no_dedup.max_cycles = 3000;
    let mut slow_ring = ArchConfig::old_organization(4);
    slow_ring.lb_latency = 5;
    slow_ring.lb_threshold = 2;
    slow_ring.cache = CacheConfig { lines: 4, line_size: 8, ..CacheConfig::default() };
    vec![
        ArchConfig::new_organization(16, 1),
        ArchConfig::new_organization(8, 1),
        ArchConfig::new_organization(8, 2),
        ArchConfig::new_organization(4, 2),
        ArchConfig::old_organization(4),
        ArchConfig::old_organization(8),
        ArchConfig::old_organization(9),
        ArchConfig::old_organization(1),
        no_dedup,
        slow_ring,
    ]
}

fn fingerprint(bench: &Benchmark, config: &ArchConfig) -> u64 {
    let set = Compiler::default().compile_set(&bench.patterns).unwrap();
    let program = set.program();
    let mut hash = Fnv::new();
    let mut machine = Machine::new(program, config.clone());
    for _ in 0..WARM_PASSES {
        for chunk in &bench.chunks {
            machine.prefetch_icache();
            hash.write(&format!("{:?}", machine.run(chunk)));
        }
    }
    for chunk in bench.chunks.iter().take(TRACED_CHUNKS) {
        machine.prefetch_icache();
        let (report, events) = machine.run_traced(chunk);
        hash.write(&format!("{report:?}"));
        hash.write(&events.len().to_string());
        for event in &events {
            hash.write(&format!("{event:?}"));
        }
        let streamed = simulate_streaming(program, chunk.chunks(STREAM_SPLIT), config);
        hash.write(&format!("{streamed:?}"));
    }
    hash.0
}

fn check(bench: &Benchmark, pinned: [u64; 10]) {
    let configs = configs();
    let all: Vec<u64> = configs.iter().map(|config| fingerprint(bench, config)).collect();
    for ((config, got), want) in configs.iter().zip(&all).zip(&pinned) {
        assert_eq!(
            got,
            want,
            "{} on {} (dedup {}, lb_latency {}): simulator output changed; all cells: {all:#018x?}",
            bench.name,
            config.name(),
            config.dedup,
            config.lb_latency,
        );
    }
}

#[test]
fn protomata_reports_traces_and_streams_are_pinned() {
    check(
        &Benchmark::protomata(7, 8, 64),
        [
            0xba14_8c69_1ff5_dd74,
            0x263c_ebfb_8a15_4c8e,
            0x145c_7a5d_4853_cda7,
            0x1728_aac3_b325_e38d,
            0x12dd_7250_961a_67a8,
            0xa9e9_a273_2773_cb9e,
            0x2a24_48b3_9e6c_91d9,
            0x29cb_5f22_86ed_9250,
            0x4460_e3a5_936a_d39a,
            0x2c1f_01d2_8ce9_8502,
        ],
    );
}

#[test]
fn brill_reports_traces_and_streams_are_pinned() {
    check(
        &Benchmark::brill(7, 8, 64),
        [
            0xcd62_8398_aa57_c9cd,
            0x6dff_00a5_4bf5_e937,
            0xb549_2b5f_5611_53f3,
            0x7afc_7b28_b201_d0f9,
            0x4563_4fc2_d6f7_9f43,
            0xf1fb_07fe_bc6e_9312,
            0xe2cc_554e_f600_0dad,
            0x3895_7bc2_c012_55ca,
            0x243a_159f_9268_58fe,
            0x3287_68fa_1aa9_76a7,
        ],
    );
}

#[test]
fn protomata4_reports_traces_and_streams_are_pinned() {
    check(
        &Benchmark::protomata4(7, 2, 16),
        [
            0xb04f_57a9_c494_a19c,
            0x582f_0829_a2f1_0341,
            0x125a_e344_42ae_8912,
            0xd026_0814_d01c_98bf,
            0xc862_278d_20d5_4f11,
            0x5476_4c5c_d5f6_f12f,
            0xe512_90fd_114c_9df9,
            0x4e2b_dfd8_b6ad_1873,
            0x4df7_2aea_4ca5_17ba,
            0x3472_de73_221c_e740,
        ],
    );
}
