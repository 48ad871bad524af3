//! **Autotuner payoff** — tuned-vs-default rows for the four paper packs
//! plus one registry-style ruleset, exported to `BENCH_tune.json`.
//!
//! For each suite the bench scores the built-in default configuration
//! under the tuner's cost function (average µs per RE from
//! `cicero_sim::measure`, the paper grid's measure), then sweeps the full
//! compiler × architecture space with `cicero_tune::tune` — the same
//! exhaustive search `cicero tune` runs with no `--budget` — and scores the
//! winner. *Asserted*, not just measured: **no regressions** — the tuned
//! config's cost is never above the default's on any suite (the searcher
//! evaluates the default as candidate zero and only replaces it on strictly
//! lower cost, so a regression here means the search engine itself is
//! broken). *Reported*, not gated: whether the winner's organization is
//! the figures' — the faster of the new compiler's OLD 1x9 and NEW 16x1
//! cells (Table 6's right column), measured the same way.
//!
//! The packs are the paper bench's default-scale suites whatever
//! `CICERO_BENCH_SCALE` says (it only picks the artifact name); the sweep
//! is 288 evaluations per suite, in index order, so the rows do not depend
//! on a seed.

use std::time::Instant;

use cicero_bench::{banner, rounded, scale_from_env, CompiledSuite, Envelope, Scale, Table};
use cicero_sim::{measure, ArchConfig};
use cicero_telemetry::JsonObject;
use cicero_tune::{pack, tune, Budget, SearchSpace, TuneConfig};
use workloads::Benchmark;

/// Recorded in the export for parity with `tune.toml`; an exhaustive
/// sweep never draws from it.
const SEED: u64 = 42;

/// The registry-style suite: a shared member plus version-specific
/// patterns, the shape of a ruleset that is hot-swapped under load.
fn registry_workload() -> Benchmark {
    let patterns: Vec<String> =
        vec!["ab|cd".to_owned(), "v0x+y".to_owned(), "v1x+y".to_owned(), "gh+i".to_owned()];
    Benchmark { name: "REGISTRY", ..Benchmark::from_patterns(&patterns) }
}

/// The configuration the figures crown on `workload`: the faster of the
/// new compiler's OLD 1x9 and NEW 16x1 cells.
fn figures_best(workload: &Benchmark) -> ArchConfig {
    let programs = CompiledSuite::build(workload).new_opt;
    let time = |config: &ArchConfig| measure(&programs, &workload.chunks, config).avg_time_us;
    let [old9, new16] = [ArchConfig::old_organization(9), ArchConfig::new_organization(16, 1)];
    if time(&new16) < time(&old9) {
        new16
    } else {
        old9
    }
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
    let scale = scale_from_env();
    // The banner states what runs: the packs are default-scale suites.
    banner("tune", "autotuned vs default configuration", Scale::DEFAULT);
    let space = SearchSpace::full();
    let budget = space.size();
    println!("  sweeping all {budget} points per suite\n");

    let mut workloads: Vec<Benchmark> = ["protomata", "brill", "protomata4", "brill4"]
        .map(|name| pack(name).expect("a built-in pack"))
        .into();
    workloads.push(registry_workload());

    let mut table = Table::new(vec![
        "suite",
        "source",
        "µs/RE",
        "W·µs/RE",
        "cycles",
        "D_offset",
        "winner",
        "figures' best",
        "sweep s",
    ]);
    let mut rows = Vec::new();
    let mut regressions = 0usize;
    for workload in &workloads {
        let started = Instant::now();
        let outcome = tune(workload, &space, Budget::Evals(budget), SEED, None)
            .expect("tuning must succeed on the committed suites");
        let sweep_s = started.elapsed().as_secs_f64();
        assert_eq!(outcome.strategy, "exhaustive");
        let figures = figures_best(workload);
        let figures_org = format!("{:?}", figures.organization).to_uppercase();
        let agrees = outcome.best.arch.to_arch_config().organization == figures.organization;
        let suite = workload.name;
        let beats = outcome.best_report.cost <= outcome.default_report.cost;
        regressions += usize::from(!beats);
        for (source, report, config, tuned) in [
            ("default", &outcome.default_report, &TuneConfig::default(), false),
            ("tune.toml", &outcome.best_report, &outcome.best, true),
        ] {
            let m = &report.measurement;
            let winner = describe(config);
            table.row(vec![
                suite.to_owned(),
                source.to_owned(),
                format!("{:.3}", m.avg_time_us),
                format!("{:.3}", m.avg_energy_wus),
                m.cycles.to_string(),
                report.d_offset.to_string(),
                winner.clone(),
                if tuned { figures.name() } else { String::new() },
                if tuned { format!("{sweep_s:.1}") } else { String::new() },
            ]);
            let row = JsonObject::new()
                .field("suite", suite)
                .field("config_source", source)
                .field("avg_time_us", rounded(m.avg_time_us, 4))
                .field("avg_energy_wus", rounded(m.avg_energy_wus, 4))
                .field("cycles", m.cycles)
                .field("d_offset", report.d_offset);
            rows.push(if tuned {
                row.field("evals", outcome.evals)
                    .field("strategy", outcome.strategy)
                    .field("winner", winner)
                    .field("beats_or_matches_default", beats)
                    .field("figures_best", figures_org.as_str())
                    .field("agrees", agrees)
                    .field("sweep_s", rounded(sweep_s, 2))
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
        "tuned-vs-default under the tuner's cost function, average µs per RE from \
         cicero_sim::measure (the paper grid's measure; energy reported beside it), on the four \
         paper packs at the default scale (16 patterns x 4 chunks, whatever the bench scale) and \
         the registry ruleset; each suite row pair shares a workload; the search is the \
         exhaustive index-order sweep of all space_points, so winners are optima and do not \
         depend on the seed; asserted: tuned cost <= default cost on every suite; reported, not \
         gated: figures_best is the organization of the faster of the new compiler's OLD 1x9 \
         and NEW 16x1 cells (Table 6's right column) and agrees says whether the winner's \
         organization matches it; sweep_s is wall-clock; D_offset is the paper's \
         speculation-depth metric",
    )
    .field("objective", "avg_time_us")
    .field("seed", SEED)
    .field("budget_evals", budget)
    .field("space_points", space.size())
    .rows("rows", rows)
    .field("regressions", regressions)
    .write();
}
