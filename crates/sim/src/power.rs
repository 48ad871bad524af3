//! Total on-chip power model (Figure 12).
//!
//! The paper's power figures come from Vivado's post-implementation power
//! analysis; here power is an analytic model fitted to the wattages the
//! paper's tables imply (Table 6 divides energy by time: OLD 1x9 ≈ 2.42 W,
//! OLD 1x16 ≈ 2.66 W, NEW 16x1 ≈ 2.39 W, NEW 8x1 ≈ 2.20 W — see
//! DESIGN.md). The structure follows the paper's analysis: a large
//! static-plus-PS baseline, per-core and per-FIFO dynamic terms (FIFO
//! replication is what makes the old organization expensive), and a small
//! per-engine interconnect/balancer term. Derated (100 MHz) configurations
//! scale their dynamic component by the clock ratio.
//!
//! [`measure`] turns simulated cycles into the paper's two per-RE figures,
//! time at the configuration's clock and energy at [`power_watts`]. It is
//! the one measure of a simulated (program set, configuration) cell: the
//! paper's tables and `cicero tune`'s cost both read it.

use cicero_isa::Program;

use crate::config::ArchConfig;
use crate::machine::simulate_batch;
use crate::resources::clock_mhz;

/// Static + processing-system baseline, in watts.
const P_STATIC: f64 = 2.0046;
/// Dynamic power per core at 150 MHz.
const P_CORE: f64 = 0.0220;
/// Dynamic power per FIFO at 150 MHz.
const P_FIFO: f64 = 0.0023;
/// Dynamic power per engine (balancer station, ring port) at 150 MHz.
const P_ENGINE: f64 = 0.0010;

/// Total on-chip power (static + dynamic) for a configuration, in watts.
pub fn power_watts(config: &ArchConfig) -> f64 {
    let dynamic = config.total_cores() as f64 * P_CORE
        + config.total_fifos() as f64 * P_FIFO
        + config.engines as f64 * P_ENGINE;
    let clock_scale = clock_mhz(config) / 150.0;
    P_STATIC + dynamic * clock_scale
}

/// Aggregate measurement of one (program set, architecture) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Average execution time per RE (per chunk) in µs.
    pub avg_time_us: f64,
    /// Average energy per RE in W·µs.
    pub avg_energy_wus: f64,
    /// Average cycles per RE.
    pub avg_cycles: f64,
    /// Aggregate instruction-cache hit rate.
    pub icache_hit_rate: f64,
    /// Total cycles over every (program, chunk) run.
    pub cycles: u64,
    /// Total instructions executed over every run.
    pub instructions: u64,
    /// Runs that accepted.
    pub accepted: usize,
    /// Some run stopped at the configuration's cycle cap, so the figures
    /// above undercount it.
    pub hit_cycle_limit: bool,
}

/// Run every program over every chunk on `config` and average per RE.
///
/// Matches the paper's measurement: "we first count the cycles required to
/// complete the execution of a complete benchmark and then divide by the
/// number of REs executed", then divide by the clock and multiply by total
/// on-chip power for energy.
pub fn measure(programs: &[Program], chunks: &[Vec<u8>], config: &ArchConfig) -> Measurement {
    let clock = config.clock_mhz();
    let watts = power_watts(config);
    let (mut cycles, mut instructions, mut accepted, mut hits, mut misses) = (0, 0, 0, 0, 0);
    let mut hit_cycle_limit = false;
    for program in programs {
        for report in simulate_batch(program, chunks, config) {
            hit_cycle_limit |= report.hit_cycle_limit;
            cycles += report.cycles;
            instructions += report.instructions;
            accepted += usize::from(report.accepted);
            hits += report.icache_hits;
            misses += report.icache_misses;
        }
    }
    let runs = (programs.len() * chunks.len()) as f64;
    let avg_cycles = cycles as f64 / runs;
    let avg_time_us = avg_cycles / clock;
    Measurement {
        avg_time_us,
        avg_energy_wus: avg_time_us * watts,
        avg_cycles,
        icache_hit_rate: if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        cycles,
        instructions,
        accepted,
        hit_cycle_limit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Benchmark, SEED};

    #[test]
    fn measure_end_to_end_smoke() {
        let bench = Benchmark::protomata(SEED, 3, 2);
        let programs: Vec<Program> = bench
            .patterns
            .iter()
            .map(|p| cicero_core::compile(p).unwrap().into_program())
            .collect();
        let m = measure(&programs, &bench.chunks, &ArchConfig::old_organization(1));
        assert!(m.avg_cycles > 0.0);
        assert!(m.avg_time_us > 0.0);
        assert!(m.avg_energy_wus > m.avg_time_us, "power is > 1 W");
        assert!(m.icache_hit_rate > 0.0 && m.icache_hit_rate <= 1.0);
        assert!(!m.hit_cycle_limit);
        let mut capped = ArchConfig::old_organization(1);
        capped.max_cycles = 10;
        assert!(measure(&programs, &bench.chunks, &capped).hit_cycle_limit);
    }

    fn close(actual: f64, expected: f64, tolerance: f64) -> bool {
        (actual - expected).abs() <= tolerance
    }

    #[test]
    fn calibration_targets_from_the_paper() {
        // Implied wattages from Table 6 (energy ÷ time), ±0.08 W.
        assert!(close(power_watts(&ArchConfig::old_organization(9)), 2.42, 0.08));
        assert!(close(power_watts(&ArchConfig::old_organization(16)), 2.66, 0.08));
        assert!(close(power_watts(&ArchConfig::new_organization(16, 1)), 2.39, 0.08));
        assert!(close(power_watts(&ArchConfig::new_organization(8, 1)), 2.20, 0.08));
    }

    #[test]
    fn power_grows_with_engines_and_cores() {
        let p1 = power_watts(&ArchConfig::old_organization(1));
        let p9 = power_watts(&ArchConfig::old_organization(9));
        let p32 = power_watts(&ArchConfig::old_organization(32));
        assert!(p1 < p9 && p9 < p32);
        let n8 = power_watts(&ArchConfig::new_organization(8, 1));
        let n32 = power_watts(&ArchConfig::new_organization(32, 1));
        assert!(n8 < n32);
    }

    #[test]
    fn old_costs_more_than_new_at_equal_core_count() {
        // Figure 12's headline: OLD 1x16 vs NEW 16x1 — same cores, but the
        // old organization replicates FIFOs and balancer stations.
        let old = power_watts(&ArchConfig::old_organization(16));
        let new = power_watts(&ArchConfig::new_organization(16, 1));
        assert!(old > new + 0.15, "old {old:.3} vs new {new:.3}");
    }

    #[test]
    fn derated_configs_scale_dynamic_power() {
        // NEW 16x9 runs at 100 MHz: its dynamic power shrinks by 2/3
        // relative to a hypothetical 150 MHz run, but the configuration is
        // still power-hungry in absolute terms.
        let p = power_watts(&ArchConfig::new_organization(16, 9));
        let undersized = power_watts(&ArchConfig::new_organization(16, 1));
        assert!(p > undersized);
    }
}
