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
//!
//! Output path via `CICERO_BENCH_SIM` (empty to disable, default
//! `BENCH_sim.json`).

use std::fmt::Write as _;
use std::time::Instant;

use cicero_bench::{banner, Scale, Table};
use cicero_core::Compiler;
use cicero_sim::{ArchConfig, Machine};
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

struct Row {
    suite: &'static str,
    shape: String,
    cycles: u64,
    ns_per_cycle: f64,
}

fn measure(bench: &Benchmark, config: &ArchConfig) -> Row {
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
    Row { suite: bench.name, shape: config.name(), cycles, ns_per_cycle: samples[PASSES / 2] }
}

fn main() {
    banner("Sim", "host ns per simulated cycle", Scale::from_env());
    let host_cpus =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    println!(
        "  fixed workload: {PATTERNS} patterns x {CHUNKS} chunks, seed {SEED}, \
         median of {PASSES} passes\n"
    );

    let mut rows = Vec::new();
    for bench in
        [Benchmark::protomata(SEED, PATTERNS, CHUNKS), Benchmark::brill(SEED, PATTERNS, CHUNKS)]
    {
        for config in shapes() {
            rows.push(measure(&bench, &config));
        }
    }

    let mut table = Table::new(vec!["suite", "shape", "cycles", "before ns/cycle", "ns/cycle"]);
    for row in &rows {
        let (.., before_cycles, before_ns) = BEFORE
            .iter()
            .find(|(suite, shape, ..)| *suite == row.suite && *shape == row.shape)
            .expect("every cell has a BEFORE row");
        table.row(vec![
            row.suite.to_owned(),
            row.shape.clone(),
            row.cycles.to_string(),
            format!("{before_ns:.1}"),
            format!("{:.1}", row.ns_per_cycle),
        ]);
        assert_eq!(
            row.cycles, *before_cycles,
            "{} on {}: cycle total moved; the simulator's results changed",
            row.suite, row.shape
        );
        if row.shape == ArchConfig::new_organization(16, 1).name() {
            assert!(
                row.ns_per_cycle <= CEILING_NS_PER_CYCLE,
                "{} on {}: {:.1} ns/cycle is above the {CEILING_NS_PER_CYCLE} ceiling",
                row.suite,
                row.shape,
                row.ns_per_cycle
            );
        }
    }
    table.print();

    let path = std::env::var("CICERO_BENCH_SIM").unwrap_or_else(|_| "BENCH_sim.json".to_owned());
    if path.is_empty() {
        return;
    }
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"sim_speed\",\n");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"patterns\": {PATTERNS},");
    let _ = writeln!(json, "  \"chunks\": {CHUNKS},");
    let _ = writeln!(json, "  \"passes\": {PASSES},");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"ceiling_ns_per_cycle\": {CEILING_NS_PER_CYCLE:.1},");
    json.push_str(
        "  \"notes\": \"host wall ns per simulated cycle, timed from outside Machine over \
         prefetch_icache + run on every chunk of the set, one warm machine per cell, median of \
         the timed passes; before rows were measured by this bench at the parent commit \
         (BTreeMap/HashMap thread state) on the same host, after rows by this run; cycles are \
         exact and asserted equal between the two; the run exits nonzero when a NEW 16x1 row \
         exceeds ceiling_ns_per_cycle\",\n",
    );
    let render = |json: &mut String, key: &str, cells: Vec<(&str, &str, u64, f64)>| {
        let _ = writeln!(json, "  \"{key}\": [");
        for (i, (suite, shape, cycles, ns)) in cells.iter().enumerate() {
            let _ = write!(
                json,
                "    {{\"suite\": \"{suite}\", \"shape\": \"{shape}\", \"cycles\": {cycles}, \
                 \"host_ns_per_cycle\": {ns:.1}}}"
            );
            json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
        }
        json.push_str("  ],\n");
    };
    render(&mut json, "before", BEFORE.to_vec());
    render(
        &mut json,
        "after",
        rows.iter().map(|r| (r.suite, r.shape.as_str(), r.cycles, r.ns_per_cycle)).collect(),
    );
    json.push_str("  \"cycles_equal\": true\n}\n");
    match std::fs::write(&path, json) {
        Ok(()) => println!("\n  results written to {path}"),
        Err(e) => eprintln!("  warning: could not write {path}: {e}"),
    }
}
