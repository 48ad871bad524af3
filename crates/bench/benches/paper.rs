//! **The paper's evaluation** — Tables 2, 5 and 6, Figures 8–15, the icache
//! and dedup ablations and the multi-matching extension, all rendered from
//! one measured [`Grid`] (each suite compiled once, each distinct
//! simulation run once), then the paper's claims evaluated on it.
//!
//! Writes `crates/bench/BENCH_paper.json` (`_quick` at
//! `CICERO_BENCH_SCALE=quick`) and exits nonzero when a gated claim fails.
//! Every table prints as GitHub markdown, so EXPERIMENTS.md pastes it from
//! the committed default-scale run.

use cicero_bench::grid::{grid_configs, icache_config, no_dedup_config, selected_configs};
use cicero_bench::grid::{table5_configs, table6_configs, ICACHE_LINES, ICACHE_SUITE, OLD_ENGINES};
use cicero_bench::{
    banner, claims, f2, paper, rounded, scale_from_env, Compiler, Envelope, Grid, Table, ENERGY,
    TIME,
};
use cicero_sim::{power_watts, resource_usage, ArchConfig, Organization};
use cicero_telemetry::JsonObject;

fn main() {
    let scale = scale_from_env();
    banner("Paper", "every table and figure of §6 from one measured grid", scale);
    let grid = &Grid::measure(scale);
    let suites = || grid.suites.iter().enumerate();
    let published = |x: f64| format!("({})", f2(x));
    let times = |x: f64| format!("{}x", f2(x));

    // Energy per RE of a compiler on a configuration, each suite next to
    // the paper's value (Tables 2 and 5).
    let energies = |compiler, config: &ArchConfig, paper_row: [f64; 4]| {
        let energies = (0..4).map(|s| grid.cell(s, compiler, config).avg_energy_wus);
        energies.zip(paper_row).flat_map(|(e, p)| [f2(e), published(p)]).collect::<Vec<_>>()
    };
    let with_paper = "|PROTOMATA|(paper)|BRILL|(paper)|PROTOMATA4|(paper)|BRILL4|(paper)";
    table(
        "Table 2: energy per RE (W·µs) vs engine count, old compiler",
        &format!("Engine #{with_paper}"),
        OLD_ENGINES.iter().zip(paper::TABLE2).map(|(m, paper_row)| {
            let config = ArchConfig::old_organization(*m);
            [m.to_string()].into_iter().chain(energies(Compiler::Old, &config, paper_row)).collect()
        }),
    );

    let code = |f| grid.suites.iter().map(move |s| (s.name.to_owned(), s.per_program_mean(f)));
    table(
        "Figure 8: average code size per RE (instructions)",
        "suite|old w/o|old w/|new w/o|new w/|new/old (w/)",
        code(|p| p.len() as f64).map(|(name, [ou, oo, nu, no])| {
            vec![name, f2(ou), f2(oo), f2(nu), f2(no), f2(no / oo)]
        }),
    );

    table(
        "Figure 9: compile time per suite (s, faster of two builds; wall clock, never gated)",
        "suite|new w/o [s]|new w/ [s]|old w/o [s]|old w/ [s]|old slowdown|(paper)\
         |new overhead|(paper)|new w/o speedup|(paper)",
        suites().map(|(i, suite)| {
            let [new_opt, new_unopt, old_opt, old_unopt] = suite.compile_seconds;
            let mut cells = vec![suite.name.to_owned()];
            cells.extend([new_unopt, new_opt, old_unopt, old_opt].map(|t| format!("{t:.4}")));
            cells.extend([
                f2(old_opt / old_unopt),
                published(paper::OLD_OPT_SLOWDOWN[i]),
                f2(new_opt / new_unopt),
                published(paper::NEW_OPT_OVERHEAD[i]),
                f2(old_unopt / new_unopt),
                published(paper::NEW_UNOPT_SPEEDUP[i]),
            ]);
            cells
        }),
    );

    table(
        "Figure 10: code locality D_offset (lower is better)",
        "suite|old w/o|old w/|new w/o|new w/|old/new (w/)|(paper)",
        code(|p| p.total_jump_offset() as f64).zip(paper::LOCALITY_IMPROVEMENT).map(
            |((name, [ou, oo, nu, no]), p)| {
                vec![name, f2(ou), f2(oo), f2(nu), f2(no), f2(oo / no), published(p)]
            },
        ),
    );

    table(
        "Figure 11: compiler impact on the old architecture (avg µs per RE)",
        "suite|arch|old compiler|new compiler|speedup|(paper)",
        suites().flat_map(|(s, suite)| {
            table6_configs(Organization::Old).map(|config| {
                let [old, new] =
                    [Compiler::Old, Compiler::New].map(|c| grid.cell(s, c, &config).avg_time_us);
                let paper = format!("(~{})", f2(paper::FIG11_SPEEDUP[s]));
                vec![suite.name.to_owned(), config.name(), f2(old), f2(new), f2(old / new), paper]
            })
        }),
    );

    let paper_rows = paper::TABLE2.into_iter().chain(paper::TABLE5_NEW);
    table(
        "Table 5: energy per RE (W·µs) per configuration, new compiler",
        &format!("configuration{with_paper}|AVG"),
        table5_configs().into_iter().zip(paper_rows).map(|(config, paper_row)| {
            let mean = (0..4).map(|s| grid.cell(s, Compiler::New, &config).avg_energy_wus);
            let mut cells = vec![config.name()];
            cells.extend(energies(Compiler::New, &config, paper_row));
            cells.push(f2(mean.sum::<f64>() / 4.0));
            cells
        }),
    );

    table(
        "Figure 12: power per configuration (W)",
        "configuration|power [W]|clock [MHz]",
        table5_configs()
            .into_iter()
            .map(|c| vec![c.name(), f2(power_watts(&c)), format!("{:.0}", c.clock_mhz())]),
    );

    table(
        "Figure 13: resource usage (%) on the XCZU3EG",
        "configuration|LUT %|REG %|BRAM %|clock",
        selected_configs().into_iter().map(|config| {
            let u = resource_usage(&config);
            let mut cells = vec![config.name()];
            let fractions = [u.lut_fraction, u.reg_fraction, u.bram_fraction];
            cells.extend(fractions.map(|f| format!("{:.1}", f * 100.0)));
            cells.push(format!("{:.0} MHz", config.clock_mhz()));
            cells
        }),
    );

    for (title, metric) in [
        ("Figure 14: speedup over OLD 1x9, new compiler", TIME),
        ("Figure 15: energy efficiency over OLD 1x9, new compiler", ENERGY),
    ] {
        table(
            title,
            "configuration|PROTOMATA|BRILL|PROTOMATA4|BRILL4",
            selected_configs().into_iter().map(|config| {
                let ratios = (0..4).map(|s| times(grid.vs_old9(s, &config, metric)));
                [config.name()].into_iter().chain(ratios).collect()
            }),
        );
    }
    println!(
        "\n  Figure 15 winner, single-RE suites: {} (paper: NEW 8x1)",
        grid.fig15_best([0, 1])
    );
    println!("  Figure 15 winner, alternate suites: {} (paper: NEW 16x1)", grid.fig15_best([2, 3]));

    for (unit, metric, paper_combined) in
        [("µs", TIME, paper::TABLE6_SPEEDUP), ("W·µs", ENERGY, paper::TABLE6_ENERGY)]
    {
        let q = grid.two_by_two(metric);
        let corners = [(0, 0), (0, 1), (1, 0), (1, 1)].map(|(c, o)| {
            let name = format!("{} compiler, best {}", ["old", "new"][c], ["OLD", "NEW"][o]);
            [name].into_iter().chain(q[c][o].map(f2)).collect::<Vec<_>>()
        });
        let gains: [(&str, &dyn Fn(usize) -> f64); 4] = [
            ("compiler gain on OLD", &|k| q[0][0][k] / q[1][0][k]),
            ("architecture gain, old compiler", &|k| q[0][0][k] / q[0][1][k]),
            ("combined: best(old) / best(new)", &|k| q[0][0][k] / q[1][1][k]),
            ("interaction", &|k| q[1][0][k] * q[0][1][k] / (q[0][0][k] * q[1][1][k])),
        ];
        let gains = gains.into_iter().map(|(name, gain)| {
            [name.to_owned()].into_iter().chain((0..5).map(|k| times(gain(k)))).collect()
        });
        let paper_row = ["(paper) combined", "-", "-"].map(str::to_owned);
        let paper_row = paper_row.into_iter().chain(paper_combined.map(times)).collect();
        table(
            &format!("Table 6: compiler {{old, new}} x best architecture {{OLD, NEW}} [{unit}]"),
            "|PROTOMATA|BRILL|PROTOMATA4|BRILL4|AVG",
            corners.into_iter().chain(gains).chain([paper_row]),
        );
    }

    table(
        "Ablation: icache: cache sensitivity (PROTOMATA4, OLD 1x9)",
        "cache (instr)|newC cycles|newC hit%|oldC cycles|oldC hit%|oldC/newC",
        ICACHE_LINES.map(|lines| {
            let config = icache_config(lines);
            let [new, old] =
                [Compiler::New, Compiler::Old].map(|c| grid.cell(ICACHE_SUITE, c, &config));
            vec![
                format!("{}", lines * config.cache.line_size),
                format!("{:.0}", new.avg_cycles),
                f2(new.icache_hit_rate * 100.0),
                format!("{:.0}", old.avg_cycles),
                f2(old.icache_hit_rate * 100.0),
                f2(old.avg_cycles / new.avg_cycles),
            ]
        }),
    );

    table(
        "Ablation: dedup: FIFO duplicate filter on vs off (OLD 1x1, new compiler)",
        "suite|instr (dedup)|instr (no dedup)|work ratio",
        suites().map(|(s, suite)| {
            let on = grid.cell(s, Compiler::New, &ArchConfig::old_organization(1)).instructions;
            let off = grid.cell(s, Compiler::New, &no_dedup_config()).instructions;
            vec![suite.name.to_owned(), on.to_string(), off.to_string(), f2(off as f64 / on as f64)]
        }),
    );

    table(
        "Extension: multi-matching: one-pass set vs per-RE scans (NEW 16x1; suites that fit \
         one set program)",
        "suite|set size [instr]|per-RE cycles|one-pass cycles|speedup|matches per-RE\
         |matches one-pass",
        suites().filter_map(|(s, suite)| {
            let (program, matches) = (suite.set.as_ref()?, suite.set_matches()?);
            let new16 = ArchConfig::new_organization(16, 1);
            let [per_re, set] = [Compiler::New, Compiler::Set].map(|c| grid.cell(s, c, &new16));
            Some(vec![
                suite.name.to_owned(),
                program.len().to_string(),
                per_re.cycles.to_string(),
                set.cycles.to_string(),
                times(per_re.cycles as f64 / set.cycles as f64),
                per_re.accepted.to_string(),
                matches.to_string(),
            ])
        }),
    );

    let claims = claims(grid);
    let yes = |b: bool, no: &str| if b { "yes" } else { no }.to_owned();
    table(
        "Claims: the paper's verdicts over the grid (statements in BENCH_paper.json)",
        "claim|figure|gated|holds",
        claims.iter().map(|c| {
            vec![c.id.to_owned(), c.figure.to_owned(), yes(c.gated, "no"), yes(c.holds, "NO")]
        }),
    );

    let cells: Vec<JsonObject> = grid_configs()
        .into_iter()
        .flat_map(|(compiler, config)| {
            suites().map(move |(s, suite)| {
                let m = grid.cell(s, compiler, &config);
                JsonObject::new()
                    .field("suite", suite.name)
                    .field("compiler", format!("{compiler:?}").to_lowercase())
                    .field("config", config.name())
                    .field("cycles", m.cycles)
                    .field("avg_time_us", rounded(m.avg_time_us, 4))
                    .field("avg_energy_wus", rounded(m.avg_energy_wus, 4))
                    .field("icache_hit_rate", rounded(m.icache_hit_rate, 4))
            })
        })
        .collect();
    let claim_rows = claims.iter().map(|c| {
        JsonObject::new()
            .field("id", c.id)
            .field("figure", c.figure)
            .field("gated", c.gated)
            .field("holds", c.holds)
            .field("statement", c.statement)
    });
    let failures: Vec<&str> = claims.iter().filter(|c| c.gated && !c.holds).map(|c| c.id).collect();
    let notes = "the grid: new compiler x Table 5's 14 configurations, old compiler x OLD \
                 1x{1,4,9,16,32} and NEW {8,16}x1, one row per (compiler, config, suite); \
                 simulated_runs adds the ablations' icache and dedup-off variants and the \
                 one-pass set on NEW 16x1, each run once. A gated claim that fails fails the \
                 bench and tests/paper_claims.rs; Figure 9's wall-clock claim is never gated";
    Envelope::new("paper", "paper", scale, notes)
        .field("grid_cells", cells.len())
        .field("simulated_runs", grid.simulated_cells())
        .rows("cells", cells)
        .rows("claims", claim_rows)
        .field("gated_claims", claims.iter().filter(|c| c.gated).count())
        .field("gated_failures", failures.len())
        .write();
    if !failures.is_empty() {
        eprintln!("gated paper claims failed: {}", failures.join(", "));
        std::process::exit(1);
    }
}

/// Print `title` and a table whose `|`-separated `headers` head `rows`.
fn table(title: &str, headers: &str, rows: impl IntoIterator<Item = Vec<String>>) {
    println!("\n=== {title} ===\n");
    let mut table = Table::new(headers.split('|').collect());
    for row in rows {
        table.row(row);
    }
    table.print();
}
