//! The paper's evaluation as one measured grid.
//!
//! [`Grid::measure`] compiles each suite once per compiler setting — twice
//! only so Figure 9 can keep the faster of two compile timings — and
//! simulates each distinct (suite, compiler, configuration) cell once: the
//! new compiler on all fourteen Table 5 configurations, the old compiler on
//! Table 2's OLD 1x{1,4,9,16,32} plus NEW {8,16}x1 (Table 6's 2×2), 84
//! cells over the four suites. The ablations' cache-size and dedup-off
//! variants and the multi-matching extension's set program on NEW 16x1
//! (where the suite fits one program) are the only other runs. The `paper` bench renders every table from the grid and
//! [`claims`](crate::claims) reads the paper's verdicts off it.

use std::collections::BTreeMap;

use cicero_isa::Program;
use cicero_sim::{measure, ArchConfig, Measurement, Organization};

use crate::{suites, CompiledSuite, Scale};

/// Table 2's engine counts (OLD 1xM).
pub const OLD_ENGINES: [usize; 5] = [1, 4, 9, 16, 32];
/// Table 5's NEW NxM shapes, in its row order.
pub const NEW_SHAPES: [(usize, usize); 9] =
    [(8, 1), (8, 4), (8, 9), (8, 16), (16, 1), (16, 4), (16, 9), (32, 1), (32, 4)];
/// The icache ablation's cache sizes, in lines of the default line size.
pub const ICACHE_LINES: [usize; 6] = [2, 4, 8, 16, 32, 64];
/// The suite the icache ablation sweeps: PROTOMATA4, the largest programs.
pub const ICACHE_SUITE: usize = 2;

/// Which of a suite's optimized program sets a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Compiler {
    /// `cicero-legacy` with Code Restructuring, one program per RE.
    Old,
    /// The multi-dialect compiler, one program per RE.
    New,
    /// The multi-dialect compiler's one `compile_set` program for the
    /// whole suite (the multi-matching extension).
    Set,
}

/// Average µs per RE.
pub const TIME: fn(&Measurement) -> f64 = |m| m.avg_time_us;
/// Average W·µs per RE.
pub const ENERGY: fn(&Measurement) -> f64 = |m| m.avg_energy_wus;

/// Every configuration of Table 5, in its row order.
pub fn table5_configs() -> Vec<ArchConfig> {
    let old = OLD_ENGINES.map(ArchConfig::old_organization);
    let new = NEW_SHAPES.map(|(n, m)| ArchConfig::new_organization(n, m));
    old.into_iter().chain(new).collect()
}

/// The two configurations Table 6 takes the best of, per organization.
pub fn table6_configs(organization: Organization) -> [ArchConfig; 2] {
    match organization {
        Organization::Old => [ArchConfig::old_organization(9), ArchConfig::old_organization(16)],
        Organization::New => {
            [ArchConfig::new_organization(8, 1), ArchConfig::new_organization(16, 1)]
        }
    }
}

/// The grid's (compiler, configuration) pairs: the old compiler on Table
/// 2's OLD rows and Table 6's NEW pair, the new one on all of Table 5.
pub fn grid_configs() -> Vec<(Compiler, ArchConfig)> {
    let old = OLD_ENGINES.map(ArchConfig::old_organization).into_iter();
    let old = old.chain(table6_configs(Organization::New)).map(|c| (Compiler::Old, c));
    old.chain(table5_configs().into_iter().map(|c| (Compiler::New, c))).collect()
}

/// The configurations selected by §6.2's micro-benchmark pre-filtering
/// (Figures 13–15).
pub fn selected_configs() -> [ArchConfig; 5] {
    let [old9, old16] = table6_configs(Organization::Old);
    let [new8, new16] = table6_configs(Organization::New);
    [old9, old16, new8, new16, ArchConfig::new_organization(32, 1)]
}

/// OLD 1x9 with `lines` icache lines (the icache ablation).
pub fn icache_config(lines: usize) -> ArchConfig {
    let mut config = ArchConfig::old_organization(9);
    config.cache.lines = lines;
    config
}

/// OLD 1x1 without the FIFO duplicate filter (the dedup ablation).
pub fn no_dedup_config() -> ArchConfig {
    let mut config = ArchConfig::old_organization(1);
    config.dedup = false;
    config.max_cycles = 3_000_000;
    config
}

/// Every measurement the paper's tables and claims read.
#[derive(Debug)]
pub struct Grid {
    /// The four suites, each compiled every way; `compile_seconds` is the
    /// faster of two builds.
    pub suites: Vec<CompiledSuite>,
    cells: BTreeMap<(usize, Compiler, String), Measurement>,
}

impl Grid {
    /// Compile and simulate everything (see the module docs).
    pub fn measure(scale: Scale) -> Grid {
        let mut grid = Grid { suites: Vec::new(), cells: BTreeMap::new() };
        for (s, bench) in suites(scale).iter().enumerate() {
            let mut suite = CompiledSuite::build(bench);
            let again = CompiledSuite::build(bench);
            for (seconds, other) in suite.compile_seconds.iter_mut().zip(again.compile_seconds) {
                *seconds = seconds.min(other);
            }
            let mut runs = grid_configs();
            runs.push((Compiler::New, no_dedup_config()));
            if suite.set.is_some() {
                runs.push((Compiler::Set, ArchConfig::new_organization(16, 1)));
            }
            if s == ICACHE_SUITE {
                for compiler in [Compiler::New, Compiler::Old] {
                    runs.extend(ICACHE_LINES.map(|lines| (compiler, icache_config(lines))));
                }
            }
            for (compiler, config) in runs {
                grid.cells.entry((s, compiler, format!("{config:?}"))).or_insert_with(|| {
                    let cell = measure(suite.programs(compiler), &suite.chunks, &config);
                    assert!(!cell.hit_cycle_limit, "benchmark run hit the cycle cap");
                    cell
                });
            }
            grid.suites.push(suite);
        }
        grid
    }

    /// The measurement of `compiler`'s programs for `suite` on `config`.
    ///
    /// # Panics
    ///
    /// Panics if that cell is not part of the grid.
    pub fn cell(&self, suite: usize, compiler: Compiler, config: &ArchConfig) -> &Measurement {
        self.cells
            .get(&(suite, compiler, format!("{config:?}")))
            .unwrap_or_else(|| panic!("{compiler:?} compiler on {config} is not in the grid"))
    }

    /// How many distinct (suite, compiler, configuration) runs were
    /// simulated, each once.
    pub fn simulated_cells(&self) -> usize {
        self.cells.len()
    }

    /// `metric` of the new compiler on OLD 1x9 over `metric` on `config`:
    /// Figures 14 (time) and 15 (energy).
    pub fn vs_old9(
        &self,
        suite: usize,
        config: &ArchConfig,
        metric: fn(&Measurement) -> f64,
    ) -> f64 {
        metric(self.cell(suite, Compiler::New, &ArchConfig::old_organization(9)))
            / metric(self.cell(suite, Compiler::New, config))
    }

    /// Figure 15's winner on `suites`: the selected configuration with the
    /// largest summed energy improvement over OLD 1x9.
    pub fn fig15_best(&self, suites: [usize; 2]) -> String {
        let mut best = (String::new(), 0.0);
        for config in selected_configs() {
            let score: f64 = suites.iter().map(|&s| self.vs_old9(s, &config, ENERGY)).sum();
            if score > best.1 {
                best = (config.name(), score);
            }
        }
        best.0
    }

    /// Table 6's 2×2 under `metric`, indexed `[compiler][organization]`
    /// (old before new): per suite, then the across-suite mean, each the
    /// lower of that organization's two Table 6 configurations.
    pub fn two_by_two(&self, metric: fn(&Measurement) -> f64) -> [[[f64; 5]; 2]; 2] {
        let mut best = [[[f64::INFINITY; 5]; 2]; 2];
        for (c, compiler) in [Compiler::Old, Compiler::New].into_iter().enumerate() {
            for (o, organization) in [Organization::Old, Organization::New].into_iter().enumerate()
            {
                for config in table6_configs(organization) {
                    let mut row: Vec<f64> =
                        (0..4).map(|s| metric(self.cell(s, compiler, &config))).collect();
                    row.push(row.iter().sum::<f64>() / 4.0);
                    for (b, x) in best[c][o].iter_mut().zip(row) {
                        *b = b.min(x);
                    }
                }
            }
        }
        best
    }
}

impl CompiledSuite {
    /// The optimized programs of `compiler`.
    pub fn programs(&self, compiler: Compiler) -> &[Program] {
        match compiler {
            Compiler::Old => &self.old_opt,
            Compiler::New => &self.new_opt,
            Compiler::Set => self.set.as_slice(),
        }
    }

    /// Distinct set members the all-matches interpreter finds in the set
    /// program, summed over the chunks (`None` without a set program).
    pub fn set_matches(&self) -> Option<usize> {
        let set = self.set.as_ref()?;
        Some(
            self.chunks.iter().map(|chunk| cicero_isa::run_all(set, chunk).matched_ids.len()).sum(),
        )
    }

    /// Mean of `f` per program, for the four variants in Figures 8 and 10's
    /// column order: old w/o, old w/, new w/o, new w/ optimizations.
    pub fn per_program_mean(&self, f: fn(&Program) -> f64) -> [f64; 4] {
        [&self.old_unopt, &self.old_opt, &self.new_unopt, &self.new_opt]
            .map(|programs| programs.iter().map(f).sum::<f64>() / programs.len() as f64)
    }
}
