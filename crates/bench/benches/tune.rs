//! **Autotuner payoff** — tuned-vs-default rows for the Protomata and
//! Brill packs plus one registry-style ruleset, exported to
//! `BENCH_tune.json`.
//!
//! For each suite the bench scores the built-in default configuration
//! under the tuner's cost function (cycles + icache-miss penalty), then
//! sweeps the full compiler × architecture space with `cicero_tune::tune`
//! — the same exhaustive search `cicero tune` runs with no `--budget` —
//! and scores the winner. *Asserted*, not just measured: **no
//! regressions** — the tuned config's cost is never above the default's
//! on any suite (the searcher evaluates the default as candidate zero and
//! only replaces it on strictly lower cost, so a regression here means
//! the search engine itself is broken).
//!
//! The sweep is 288 evaluations per suite at every `CICERO_BENCH_SCALE`
//! (seconds), in index order, so the rows do not depend on a seed.
//! Output path via `CICERO_BENCH_TUNE` (empty to disable, default
//! `BENCH_tune.json`).

use std::fmt::Write as _;

use cicero_bench::{banner, Scale, Table};
use cicero_tune::{tune, Budget, CostReport, SearchSpace, TuneConfig, Workload};

/// Recorded in the export for parity with `tune.toml`; an exhaustive
/// sweep never draws from it.
const SEED: u64 = 42;

/// The registry-style suite: the shared member plus version-specific
/// patterns that `benches/registry.rs` hot-swaps under load.
fn registry_workload() -> Workload {
    let patterns: Vec<String> =
        vec!["ab|cd".to_owned(), "v0x+y".to_owned(), "v1x+y".to_owned(), "gh+i".to_owned()];
    let mut workload = Workload::from_patterns(&patterns).expect("registry ruleset workload");
    workload.name = "registry".to_owned();
    workload
}

/// All four searched axes of a config, in one cell.
fn describe(config: &TuneConfig) -> String {
    format!(
        "{} / icache {}x{} / {} / leading {}",
        config.arch.name(),
        config.arch.cache_lines,
        config.arch.cache_line_size,
        config.compiler.pass_order.to_token_string(),
        if config.compiler.shortest_match_leading { "on" } else { "off" }
    )
}

struct Row {
    suite: String,
    default_report: CostReport,
    tuned_report: CostReport,
    tuned: TuneConfig,
    evals: usize,
    strategy: &'static str,
}

fn main() {
    let scale = Scale::from_env();
    banner("tune", "autotuned vs default configuration", scale);
    let space = SearchSpace::full();
    let budget = space.size();
    println!("  sweeping all {budget} points per suite\n");

    let workloads = vec![
        Workload::pack("protomata").unwrap(),
        Workload::pack("brill").unwrap(),
        registry_workload(),
    ];

    let mut rows = Vec::new();
    for workload in &workloads {
        let outcome = tune(workload, &space, Budget::Evals(budget), SEED, None)
            .expect("tuning must succeed on the committed suites");
        assert_eq!(outcome.strategy, "exhaustive");
        assert!(
            outcome.best_report.cost <= outcome.default_report.cost,
            "tuned must beat or match default on {}",
            workload.name
        );
        rows.push(Row {
            suite: workload.name.to_uppercase(),
            default_report: outcome.default_report,
            tuned_report: outcome.best_report,
            tuned: outcome.best,
            evals: outcome.evals,
            strategy: outcome.strategy,
        });
    }

    let mut table =
        Table::new(vec!["suite", "source", "cycles", "throughput MB/s", "D_offset", "winner"]);
    for row in &rows {
        table.row(vec![
            row.suite.clone(),
            "default".to_owned(),
            row.default_report.cycles.to_string(),
            format!("{:.2}", row.default_report.throughput_mbps),
            row.default_report.d_offset.to_string(),
            describe(&TuneConfig::default()),
        ]);
        table.row(vec![
            row.suite.clone(),
            "tune.toml".to_owned(),
            row.tuned_report.cycles.to_string(),
            format!("{:.2}", row.tuned_report.throughput_mbps),
            row.tuned_report.d_offset.to_string(),
            describe(&row.tuned),
        ]);
    }
    table.print();

    let regressions = rows.iter().filter(|r| r.tuned_report.cost > r.default_report.cost).count();
    assert_eq!(regressions, 0, "the searcher never dethrones the default on a tie");

    let path = std::env::var("CICERO_BENCH_TUNE").unwrap_or_else(|_| "BENCH_tune.json".to_owned());
    if path.is_empty() {
        return;
    }
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"tune\",\n");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"budget_evals\": {budget},");
    let _ = writeln!(json, "  \"space_points\": {},", space.size());
    json.push_str(
        "  \"notes\": \"tuned-vs-default under the tuner's cost function (cycles + 1e-3 per \
         icache miss) on the protomata/brill packs and the registry ruleset; each suite row \
         pair shares a workload; the search is the exhaustive index-order sweep of all \
         space_points, so winners are optima and do not depend on the seed; asserted: tuned \
         cost <= default cost on every suite; cycles/throughput are simulated at the row's \
         architecture, D_offset is the paper's speculation-depth metric\",\n",
    );
    json.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let beats = row.tuned_report.cost <= row.default_report.cost;
        let _ = write!(
            json,
            "    {{\"suite\": \"{}\", \"config_source\": \"default\", \"cycles\": {}, \
             \"throughput_mbps\": {:.3}, \"d_offset\": {}}},\n    \
             {{\"suite\": \"{}\", \"config_source\": \"tune.toml\", \"cycles\": {}, \
             \"throughput_mbps\": {:.3}, \"d_offset\": {}, \"evals\": {}, \
             \"strategy\": \"{}\", \"winner\": \"{}\", \"beats_or_matches_default\": {}}}",
            row.suite,
            row.default_report.cycles,
            row.default_report.throughput_mbps,
            row.default_report.d_offset,
            row.suite,
            row.tuned_report.cycles,
            row.tuned_report.throughput_mbps,
            row.tuned_report.d_offset,
            row.evals,
            row.strategy,
            describe(&row.tuned),
            beats,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"regressions\": {regressions}");
    json.push_str("}\n");
    match std::fs::write(&path, json) {
        Ok(()) => println!("\n  results written to {path}"),
        Err(e) => eprintln!("  warning: could not write {path}: {e}"),
    }
}
