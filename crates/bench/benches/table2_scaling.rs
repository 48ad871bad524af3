//! **Table 2** — average energy (W·µs) per RE execution on the old
//! multi-engine architecture: "the virtualized enumeration via
//! cross-engine load balancing stops scaling after 9 engines".
//!
//! Programs are compiled with the old compiler (Table 2 predates the new
//! flow). The reproduction target is the *shape*: energy falls from one
//! engine to the 4–9 knee, then rises as extra engines burn power without
//! adding useful parallelism.
//!
//! Besides the printed table, the driver exports the full telemetry —
//! per-run `sim.*` histograms plus one event per table row — as JSON
//! lines to `BENCH_telemetry.jsonl` (override with
//! `CICERO_BENCH_TELEMETRY`, `-` for stdout, empty to disable).

use cicero_bench::{
    banner, f2, measure_with_telemetry, paper, suites, CompiledSuite, Scale, Table,
};
use cicero_sim::ArchConfig;
use cicero_telemetry::Telemetry;

fn main() {
    let scale = Scale::from_env();
    banner("Table 2", "energy per RE vs engine count (old architecture)", scale);
    let telemetry = Telemetry::new();
    let compiled: Vec<CompiledSuite> = suites(scale).iter().map(CompiledSuite::build).collect();

    let mut table = Table::new(vec![
        "Engine #".to_owned(),
        "PROTOMATA".to_owned(),
        "(paper)".to_owned(),
        "BRILL".to_owned(),
        "(paper)".to_owned(),
        "PROTOMATA4".to_owned(),
        "(paper)".to_owned(),
        "BRILL4".to_owned(),
        "(paper)".to_owned(),
    ]);
    let mut minima = [f64::INFINITY; 4];
    let mut minima_at = [0usize; 4];
    for (row, (name, paper_row)) in paper::TABLE2.iter().enumerate() {
        let engines = [1, 4, 9, 16, 32][row];
        let config = ArchConfig::old_organization(engines);
        let mut cells = vec![engines.to_string()];
        for (i, suite) in compiled.iter().enumerate() {
            let m = measure_with_telemetry(&suite.old_opt, &suite.chunks, &config, &telemetry);
            if m.avg_energy_wus < minima[i] {
                minima[i] = m.avg_energy_wus;
                minima_at[i] = engines;
            }
            cells.push(f2(m.avg_energy_wus));
            cells.push(format!("({})", f2(paper_row[i])));
        }
        let _ = name;
        table.row(cells);
    }
    table.print();
    println!();
    for (i, suite) in paper::SUITES.iter().enumerate() {
        println!("  {suite}: most efficient at {} engines (paper knee: 4-9 engines)", minima_at[i]);
    }

    table.record_into(&telemetry, "table2");
    let path = std::env::var("CICERO_BENCH_TELEMETRY")
        .unwrap_or_else(|_| "BENCH_telemetry.jsonl".to_owned());
    if !path.is_empty() {
        match telemetry.write_jsonl_path(&path) {
            Ok(()) => println!("\n  telemetry (JSON lines) written to {path}"),
            Err(e) => eprintln!("  warning: could not write telemetry to {path}: {e}"),
        }
    }
}
