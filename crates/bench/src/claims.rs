//! The paper's verdicts as named predicates over a [`Grid`]: one per
//! "Reproduced:" sentence of EXPERIMENTS.md, which cites each by its id.
//! The `paper` bench exits nonzero and `tests/paper_claims.rs` fails when a
//! gated claim stops holding.

use cicero_sim::{resource_usage, ArchConfig, Measurement, Organization};

use crate::grid::{grid_configs, icache_config, no_dedup_config, selected_configs, table5_configs};
use crate::grid::{table6_configs, ICACHE_LINES, ICACHE_SUITE, NEW_SHAPES, OLD_ENGINES};
use crate::{Compiler, Grid, ENERGY, TIME};

/// One claim of the paper, evaluated on a grid.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Stable name; EXPERIMENTS.md cites it.
    pub id: &'static str,
    /// The table or figure it is about.
    pub figure: &'static str,
    /// What it asserts.
    pub statement: &'static str,
    /// Whether the grid satisfies it.
    pub holds: bool,
    /// Whether failing it fails the bench and the tier-1 test. `false` for
    /// Figure 9's wall-clock ratios and for claims the measurements
    /// contradict, which EXPERIMENTS.md states as deviations.
    pub gated: bool,
}

const SINGLE: [usize; 2] = [0, 1];
const ALTERNATE: [usize; 2] = [2, 3];
const PROTOMATA_FAMILY: [usize; 2] = [0, 2];
const BRILL_FAMILY: [usize; 2] = [1, 3];

/// Every value of `low` lies below every value of `high`.
fn below(low: impl IntoIterator<Item = f64>, high: impl IntoIterator<Item = f64>) -> bool {
    let floor = high.into_iter().fold(f64::INFINITY, f64::min);
    low.into_iter().all(|x| x < floor)
}

/// Evaluate every claim on `grid`.
pub fn claims(grid: &Grid) -> Vec<Claim> {
    use Compiler::{New, Old};
    let cell = |s, compiler, config: &ArchConfig| grid.cell(s, compiler, config);
    let every_suite = |p: &dyn Fn(usize) -> bool| (0..grid.suites.len()).all(p);
    let [new8, new16] = table6_configs(Organization::New);
    let per_program = |f| grid.suites.iter().map(|s| s.per_program_mean(f)).collect::<Vec<_>>();
    let [sizes, offsets] =
        [per_program(|p| p.len() as f64), per_program(|p| p.total_jump_offset() as f64)];
    let locality_gain = |s: usize| offsets[s][1] / offsets[s][3];
    let compiler_gain = |s, c: &ArchConfig| TIME(cell(s, Old, c)) / TIME(cell(s, New, c));
    let mean = |compiler, config: &ArchConfig, metric: fn(&Measurement) -> f64| {
        (0..4).map(|s| metric(cell(s, compiler, config))).sum::<f64>() / 4.0
    };
    let new16_lowest = |candidates: &[(Compiler, ArchConfig)], metric| {
        candidates.iter().all(|(c, x)| mean(New, &new16, metric) <= mean(*c, x, metric))
    };
    let table6 = [Organization::Old, Organization::New].map(table6_configs).concat();
    let corners: Vec<_> = grid_configs().into_iter().filter(|(_, x)| table6.contains(x)).collect();
    let table5: Vec<_> = table5_configs().into_iter().map(|c| (New, c)).collect();
    let [t, e] = [grid.two_by_two(TIME), grid.two_by_two(ENERGY)];
    let speedup16 = |s| grid.vs_old9(s, &new16, TIME);
    let usage = selected_configs()
        .map(|c| resource_usage(&c))
        .map(|u| [u.lut_fraction, u.reg_fraction, u.bram_fraction]);
    let sweep = |compiler| ICACHE_LINES.map(|l| *cell(ICACHE_SUITE, compiler, &icache_config(l)));
    let [swept_new, swept_old] = [sweep(New), sweep(Old)];
    let dedup_ratio = |s| {
        let on = cell(s, New, &ArchConfig::old_organization(1)).instructions;
        cell(s, New, &no_dedup_config()).instructions as f64 / on as f64
    };
    let claim = |id, figure, gated, statement, holds| Claim { id, figure, statement, holds, gated };

    vec![
        claim("table2.knee_at_4_to_16_engines", "Table 2", true,
            "old compiler on OLD 1xM: the energy minimum falls at 4-16 engines on every suite",
            every_suite(&|s| {
                let energy = |m| ENERGY(cell(s, Old, &ArchConfig::old_organization(m)));
                let energies = OLD_ENGINES.map(energy);
                let knee = (0..5).min_by(|&a, &b| energies[a].total_cmp(&energies[b]));
                matches!(knee.map(|i| OLD_ENGINES[i]), Some(4 | 9 | 16))
            })),
        claim("fig8.new_code_no_larger", "Figure 8", true,
            "with optimizations, new-compiler code is no larger than old-compiler code on every \
             suite",
            sizes.iter().all(|size| size[3] <= size[1])),
        claim("fig9.old_slowdown_exceeds_new_overhead", "Figure 9", false,
            "the old compiler's optimization slowdown exceeds the new compiler's overhead on every \
             suite (wall clock, never gated)",
            grid.suites.iter().all(|s| {
                let [new_opt, new_unopt, old_opt, old_unopt] = s.compile_seconds;
                old_opt / old_unopt > new_opt / new_unopt
            })),
        claim("fig10.old_above_new", "Figure 10", true,
            "with optimizations, old-compiler D_offset exceeds new-compiler D_offset on every \
             suite",
            offsets.iter().all(|d| d[1] > d[3])),
        claim("fig10.restructuring_hurts_jump_simplification_helps", "Figure 10", true,
            "Code Restructuring raises the old compiler's D_offset and Jump Simplification lowers \
             the new compiler's, on every suite",
            offsets.iter().all(|d| d[1] > d[0] && d[3] < d[2])),
        claim("fig10.protomata_gap_exceeds_brill", "Figure 10", true,
            "every Protomata-family old/new D_offset ratio exceeds every Brill-family one",
            below(BRILL_FAMILY.map(locality_gain), PROTOMATA_FAMILY.map(locality_gain))),
        claim("fig11.protomata_gain_exceeds_brill", "Figure 11", true,
            "on OLD 1x9 and on OLD 1x16, the new compiler speeds up every suite, and every \
             Protomata-family speedup exceeds every Brill-family one",
            table6_configs(Organization::Old).iter().all(|c| {
                let gains = |family: [usize; 2]| family.map(|s| compiler_gain(s, c));
                below([1.0], gains(BRILL_FAMILY))
                    && below(gains(BRILL_FAMILY), gains(PROTOMATA_FAMILY))
            })),
        claim("fig13.new8x1_leanest", "Figure 13", true,
            "NEW 8x1 uses the fewest LUTs, registers and BRAMs of the selected configurations, and \
             NEW 16x1 fewer than OLD 1x16",
            (0..3).all(|k| {
                below([usage[2][k]], [0, 1, 3, 4].map(|j| usage[j][k])) && usage[3][k] < usage[1][k]
            })),
        claim("table5.nx1_beats_nxm", "Table 5", true,
            "every NEW NxM with M > 1 spends more energy per RE than NEW Nx1 on every suite",
            NEW_SHAPES.iter().filter(|(_, m)| *m > 1).all(|&(n, m)| {
                let [nx1, nxm] = [1, m].map(|m| ArchConfig::new_organization(n, m));
                every_suite(&|s| ENERGY(cell(s, New, &nxm)) > ENERGY(cell(s, New, &nx1)))
            })),
        claim("table5.new16x1_lowest_mean_energy", "Table 5", true,
            "NEW 16x1 has the lowest mean energy per RE of the fourteen configurations",
            new16_lowest(&table5, ENERGY)),
        claim("fig14.new16x1_at_least_1x", "Figure 14", false,
            "NEW 16x1 is at least as fast as OLD 1x9 on every suite",
            every_suite(&|s| speedup16(s) >= 1.0)),
        claim("fig14.alternate_suites_gain_most", "Figure 14", true,
            "NEW 16x1's speedup over OLD 1x9 is larger on each alternate suite than on each \
             single-RE suite",
            below(SINGLE.map(speedup16), ALTERNATE.map(speedup16))),
        claim("fig15.new16x1_best_on_alternate", "Figure 15", true,
            "NEW 16x1 is the most energy-efficient selected configuration on the alternate suites",
            grid.fig15_best(ALTERNATE) == new16.name()),
        claim("fig15.new8x1_best_on_single", "Figure 15", false,
            "NEW 8x1 is the most energy-efficient selected configuration on the single-RE suites",
            grid.fig15_best(SINGLE) == new8.name()),
        claim("table6.new_compiler_new16x1_best", "Table 6", true,
            "of the 2x2's eight (compiler, configuration) cells, the new compiler on NEW 16x1 has \
             the lowest mean time and the lowest mean energy",
            new16_lowest(&corners, TIME) && new16_lowest(&corners, ENERGY)),
        claim("table6.combined_beats_baseline", "Table 6", true,
            "new compiler + best NEW beats old compiler + best OLD in time and energy on every \
             suite",
            (0..5).all(|k| t[0][0][k] > t[1][1][k] && e[0][0][k] > e[1][1][k])),
        claim("table6.interaction_above_1", "Table 6", false,
            "combining beats both helping: the time interaction T(new,OLD)T(old,NEW) / \
             (T(old,OLD)T(new,NEW)) exceeds 1 on every suite",
            (0..4).all(|k| t[1][0][k] * t[0][1][k] > t[0][0][k] * t[1][1][k])),
        claim("ablation.icache_sensitivity", "Ablation: icache", true,
            "PROTOMATA4 on OLD 1x9: each larger icache lowers new-compiled code's cycles and \
             raises its hit rate, and old-compiled code takes more cycles at every size",
            swept_new.windows(2).all(|w| {
                w[1].avg_cycles < w[0].avg_cycles && w[1].icache_hit_rate > w[0].icache_hit_rate
            }) && swept_old.iter().zip(&swept_new).all(|(o, n)| o.avg_cycles > n.avg_cycles)),
        claim("ablation.dedup_pays_on_brill", "Ablation: dedup", true,
            "disabling the duplicate filter never lowers executed instructions, and raises them \
             more on every Brill-family suite than on any Protomata-family one",
            every_suite(&|s| dedup_ratio(s) >= 1.0)
                && below(PROTOMATA_FAMILY.map(dedup_ratio), BRILL_FAMILY.map(dedup_ratio))),
        claim("ext.one_pass_set_beats_per_re", "Extension", true,
            "on NEW 16x1 the one-pass set takes fewer cycles than the per-RE scans, and its \
             all-matches scan finds every per-RE (RE, chunk) match, on every suite that fits \
             one set program",
            every_suite(&|s| {
                let Some(matches) = grid.suites[s].set_matches() else { return true };
                let [set, per_re] = [Compiler::Set, New].map(|c| cell(s, c, &new16));
                set.cycles < per_re.cycles && matches == per_re.accepted
            })),
    ]
}
