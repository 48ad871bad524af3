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

use cicero_bench::{banner, rounded, Envelope, Scale, Table};
use cicero_telemetry::JsonObject;
use cicero_tune::{tune, Budget, SearchSpace, TuneConfig, Workload};

/// Recorded in the export for parity with `tune.toml`; an exhaustive
/// sweep never draws from it.
const SEED: u64 = 42;

/// The registry-style suite: a shared member plus version-specific
/// patterns, the shape of a ruleset that is hot-swapped under load.
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

    let mut table =
        Table::new(vec!["suite", "source", "cycles", "throughput MB/s", "D_offset", "winner"]);
    let mut rows = Vec::new();
    let mut regressions = 0usize;
    for workload in &workloads {
        let outcome = tune(workload, &space, Budget::Evals(budget), SEED, None)
            .expect("tuning must succeed on the committed suites");
        assert_eq!(outcome.strategy, "exhaustive");
        let suite = workload.name.to_uppercase();
        let beats = outcome.best_report.cost <= outcome.default_report.cost;
        regressions += usize::from(!beats);
        for (source, report, config, tuned) in [
            ("default", &outcome.default_report, &TuneConfig::default(), false),
            ("tune.toml", &outcome.best_report, &outcome.best, true),
        ] {
            let winner = describe(config);
            table.row(vec![
                suite.clone(),
                source.to_owned(),
                report.cycles.to_string(),
                format!("{:.2}", report.throughput_mbps),
                report.d_offset.to_string(),
                winner.clone(),
            ]);
            let row = JsonObject::new()
                .field("suite", suite.as_str())
                .field("config_source", source)
                .field("cycles", report.cycles)
                .field("throughput_mbps", rounded(report.throughput_mbps, 3))
                .field("d_offset", report.d_offset);
            rows.push(if tuned {
                row.field("evals", outcome.evals)
                    .field("strategy", outcome.strategy)
                    .field("winner", winner)
                    .field("beats_or_matches_default", beats)
            } else {
                row
            });
        }
    }
    table.print();
    assert_eq!(regressions, 0, "tuned cost must never exceed default cost on any suite");

    Envelope::new(
        "tune",
        "tune",
        scale,
        "tuned-vs-default under the tuner's cost function (cycles + 1e-3 per icache miss) on the \
         protomata/brill packs and the registry ruleset; each suite row pair shares a workload; \
         the search is the exhaustive index-order sweep of all space_points, so winners are \
         optima and do not depend on the seed; asserted: tuned cost <= default cost on every \
         suite; cycles/throughput are simulated at the row's architecture, D_offset is the \
         paper's speculation-depth metric",
    )
    .field("seed", SEED)
    .field("budget_evals", budget)
    .field("space_points", space.size())
    .rows("rows", rows)
    .field("regressions", regressions)
    .write();
}
