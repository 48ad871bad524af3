//! **Simulator host cost** — host nanoseconds per simulated cycle of the
//! cycle-level machine, exported to `BENCH_sim.json`.
//!
//! Every paper table, every difftest `sim/*` cell, every `cicero tune`
//! evaluation and every `dsa-sim` request pays `Machine::drive`, so its
//! host cost per cycle is the evaluator's price. This bench times it
//! from outside the machine (no counter in the hot loop): for the
//! PROTOMATA and BRILL 8-pattern sets on four shapes — the served NEW
//! 16x1, a two-engine ring, and the old organization at 8 and 1 engines
//! — one warm machine runs every chunk (`prefetch_icache` + `run`), and
//! the median of [`PASSES`] timed passes over the pass's total cycles is
//! the row.
//!
//! The workload is fixed (independent of `CICERO_BENCH_SCALE`) because
//! the cycle totals are exact: [`BEFORE`] holds the rows measured at the
//! commit before the simulator's state moved onto window-sized rings,
//! and the run **fails if any cell's cycle total differs from its
//! `BEFORE` total** — a speed-up that changes what is simulated is not
//! one. It also fails when a NEW 16x1 row costs more than
//! [`CEILING_NS_PER_CYCLE`], a tripwire at twice the measured figure.

use std::time::Instant;

use cicero_bench::{banner, rounded, Envelope, Scale, Table};
use cicero_core::Compiler;
use cicero_sim::{ArchConfig, Machine};
use cicero_telemetry::JsonObject;
use workloads::Benchmark;

const SEED: u64 = 7;
const PATTERNS: usize = 8;
const CHUNKS: usize = 32;
/// Timed passes per cell; the row is their median.
const PASSES: usize = 5;

/// Twice the slower measured NEW 16x1 row (BRILL, 369 ns/cycle).
const CEILING_NS_PER_CYCLE: f64 = 740.0;

/// `(suite, shape, total cycles, host ns per cycle)` measured with this
/// bench at the parent commit (map-based machine) on the 2-vCPU host the
/// committed JSON records.
const BEFORE: &[(&str, &str, u64, f64)] = &[
    ("PROTOMATA", "NEW 16x1 CORES", 126_097, 1240.8),
    ("PROTOMATA", "NEW 8x2 CORES", 218_335, 792.5),
    ("PROTOMATA", "OLD 1x8 CORES", 231_399, 648.1),
    ("PROTOMATA", "OLD 1x1 CORES", 1_374_758, 83.4),
    ("BRILL", "NEW 16x1 CORES", 162_990, 1278.1),
    ("BRILL", "NEW 8x2 CORES", 339_414, 746.8),
    ("BRILL", "OLD 1x8 CORES", 447_561, 657.0),
    ("BRILL", "OLD 1x1 CORES", 2_025_116, 86.1),
];

fn shapes() -> Vec<ArchConfig> {
    vec![
        ArchConfig::new_organization(16, 1),
        ArchConfig::new_organization(8, 2),
        ArchConfig::old_organization(8),
        ArchConfig::old_organization(1),
    ]
}

/// `(total cycles, median host ns per cycle)` of one suite on one shape.
fn measure(bench: &Benchmark, config: &ArchConfig) -> (u64, f64) {
    let set = Compiler::default().compile_set(&bench.patterns).expect("suite compiles");
    let mut machine = Machine::new(set.program(), config.clone());
    let pass = |machine: &mut Machine| -> u64 {
        bench
            .chunks
            .iter()
            .map(|chunk| {
                machine.prefetch_icache();
                std::hint::black_box(machine.run(std::hint::black_box(chunk))).cycles
            })
            .sum()
    };
    let cycles = pass(&mut machine);
    let mut samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            let timed_cycles = pass(&mut machine);
            let ns = start.elapsed().as_nanos() as f64;
            assert_eq!(timed_cycles, cycles, "the simulator is deterministic");
            ns / cycles as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    (cycles, samples[PASSES / 2])
}

fn main() {
    let scale = Scale::from_env();
    banner("Sim", "host ns per simulated cycle", scale);
    println!(
        "  fixed workload: {PATTERNS} patterns x {CHUNKS} chunks, seed {SEED}, \
         median of {PASSES} passes\n"
    );

    let cell = |suite: &str, shape: &str, cycles: u64, ns: f64| {
        JsonObject::new()
            .field("suite", suite)
            .field("shape", shape)
            .field("cycles", cycles)
            .field("host_ns_per_cycle", rounded(ns, 1))
    };
    let mut table = Table::new(vec!["suite", "shape", "cycles", "before ns/cycle", "ns/cycle"]);
    let mut after = Vec::new();
    for bench in
        [Benchmark::protomata(SEED, PATTERNS, CHUNKS), Benchmark::brill(SEED, PATTERNS, CHUNKS)]
    {
        for config in shapes() {
            let (suite, shape) = (bench.name, config.name());
            let (cycles, ns_per_cycle) = measure(&bench, &config);
            let (.., before_cycles, before_ns) = BEFORE
                .iter()
                .find(|(s, shape_name, ..)| *s == suite && *shape_name == shape)
                .expect("every cell has a BEFORE row");
            table.row(vec![
                suite.to_owned(),
                shape.clone(),
                cycles.to_string(),
                format!("{before_ns:.1}"),
                format!("{ns_per_cycle:.1}"),
            ]);
            assert_eq!(
                cycles, *before_cycles,
                "{suite} on {shape}: cycle total moved; the simulator's results changed"
            );
            if config == ArchConfig::new_organization(16, 1) {
                assert!(
                    ns_per_cycle <= CEILING_NS_PER_CYCLE,
                    "{suite} on {shape}: {ns_per_cycle:.1} ns/cycle is above the \
                     {CEILING_NS_PER_CYCLE} ceiling"
                );
            }
            after.push(cell(suite, &shape, cycles, ns_per_cycle));
        }
    }
    table.print();

    Envelope::new(
        "sim_speed",
        "sim",
        scale,
        "host wall ns per simulated cycle, timed from outside Machine over prefetch_icache + run \
         on every chunk of the set, one warm machine per cell, median of the timed passes; the \
         workload is fixed, whatever the scale; before rows were measured by this bench at the \
         commit before the ring refactor (BTreeMap/HashMap thread state) on a 2-vCPU host, after \
         rows by this run; cycles are exact and asserted equal between the two; the run exits \
         nonzero when a NEW 16x1 row exceeds ceiling_ns_per_cycle",
    )
    .field("seed", SEED)
    .field("patterns", PATTERNS)
    .field("chunks", CHUNKS)
    .field("passes", PASSES)
    .field("ceiling_ns_per_cycle", CEILING_NS_PER_CYCLE)
    .rows("before", BEFORE.iter().map(|&(suite, shape, cycles, ns)| cell(suite, shape, cycles, ns)))
    .rows("after", after)
    .field("cycles_equal", true)
    .write();
}
