//! The cost function: how a candidate config is scored on a workload.

use cicero_core::Compiler;
use cicero_sim::simulate;

use crate::config::TuneConfig;
use crate::workload::Workload;
use crate::TuneError;

/// Everything one evaluation measured. `cost` is the scalar the searcher
/// minimizes; the rest is reporting (benches, `tune.toml` score section).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostReport {
    /// The minimized scalar: simulated cycles, with icache misses as a
    /// deterministic tie-breaker.
    pub cost: f64,
    /// Total simulated cycles across every (pattern × chunk) pair.
    pub cycles: u64,
    /// Total simulated icache misses.
    pub icache_misses: u64,
    /// Estimated scan time in microseconds (from cycles and the derated
    /// clock).
    pub time_us: f64,
    /// Workload bytes per second, in MB/s, implied by `time_us`.
    pub throughput_mbps: f64,
    /// Summed `D_offset` code-locality metric across the compiled
    /// patterns (the paper's Equation 1 — reported alongside every cost).
    pub d_offset: u64,
    /// Summed code size in instructions.
    pub code_size: usize,
}

/// Cost a candidate pays when the simulator trips its cycle safety
/// valve: effectively infinite, but finite so comparisons stay total.
const CYCLE_LIMIT_COST: f64 = 1e30;

/// Score `config` on `workload`: compile every pattern under the
/// candidate's compiler options, simulate it over every chunk on the
/// candidate's machine, and sum cycles. A pure function of its inputs —
/// identical on every host — which is what makes the search memoizable
/// and `cicero tune` reproducible. It reads every field of [`TuneConfig`];
/// a knob it cannot see does not belong in the search space.
///
/// # Errors
///
/// [`TuneError::Compile`] when a workload pattern fails to compile under
/// the candidate's compiler options.
pub fn evaluate(workload: &Workload, config: &TuneConfig) -> Result<CostReport, TuneError> {
    let arch = config.arch.to_arch_config();
    let compiler = Compiler::with_options(config.compiler);
    let mut cycles = 0u64;
    let mut icache_misses = 0u64;
    let mut d_offset = 0u64;
    let mut code_size = 0usize;
    let mut hit_limit = false;
    for pattern in &workload.patterns {
        let compiled = compiler
            .compile(pattern)
            .map_err(|e| TuneError::Compile(format!("`{pattern}`: {e}")))?;
        d_offset += compiled.d_offset();
        code_size += compiled.code_size();
        let program = compiled.into_program();
        for chunk in &workload.chunks {
            let report = simulate(&program, chunk, &arch);
            cycles += report.cycles;
            icache_misses += report.icache_misses;
            hit_limit |= report.hit_cycle_limit;
        }
    }
    let time_us = cycles as f64 / arch.clock_mhz();
    let total_bytes = workload.total_bytes() as f64;
    let throughput_mbps = if time_us > 0.0 { total_bytes / time_us } else { 0.0 };
    let cost = if hit_limit {
        CYCLE_LIMIT_COST
    } else {
        // Misses break cycle ties deterministically without ever
        // outweighing a single cycle of difference.
        cycles as f64 + icache_misses as f64 * 1e-3
    };
    Ok(CostReport { cost, cycles, icache_misses, time_us, throughput_mbps, d_offset, code_size })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload() -> Workload {
        Workload::from_patterns(&["ab+c".to_owned(), "x[yz]w".to_owned()]).unwrap()
    }

    #[test]
    fn evaluation_is_deterministic() {
        let workload = tiny_workload();
        let config = TuneConfig::default();
        let a = evaluate(&workload, &config).unwrap();
        let b = evaluate(&workload, &config).unwrap();
        assert_eq!(a, b);
        assert!(a.cycles > 0);
        assert!(a.cost > 0.0);
        assert!(a.throughput_mbps > 0.0);
    }

    #[test]
    fn evaluation_sees_config_differences() {
        let workload = tiny_workload();
        let default = evaluate(&workload, &TuneConfig::default()).unwrap();
        let mut small = TuneConfig::default();
        small.arch.cache_lines = 1;
        small.arch.cache_line_size = 1;
        let starved = evaluate(&workload, &small).unwrap();
        // A one-line icache cannot beat the default geometry.
        assert!(starved.icache_misses >= default.icache_misses);
    }

    #[test]
    fn compile_errors_name_the_pattern() {
        let workload = Workload {
            name: "bad".to_owned(),
            patterns: vec!["(".to_owned()],
            chunks: vec![b"abc".to_vec()],
        };
        let err = evaluate(&workload, &TuneConfig::default()).unwrap_err();
        assert!(matches!(err, TuneError::Compile(ref msg) if msg.contains('(')), "{err}");
    }
}
