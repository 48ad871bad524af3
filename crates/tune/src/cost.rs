//! The cost function: how a candidate config is scored on a workload.
//!
//! A candidate is scored by [`cicero_sim::measure`], the same function the
//! paper's tables read: average µs per RE at the candidate's clock, over
//! the workload's patterns × chunks. The tuner's winner on a suite is
//! therefore the fastest cell the figures would report for it.

use cicero_core::Compiler;
use cicero_sim::{measure, Measurement};
use workloads::Benchmark;

use crate::config::TuneConfig;
use crate::TuneError;

/// Everything one evaluation measured. `cost` is the scalar the sweep
/// minimizes; the rest is reporting (benches, `tune.toml` score section).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostReport {
    /// The minimized scalar: the measurement's average µs per RE.
    pub cost: f64,
    /// The candidate's time, energy and cycles per RE.
    pub measurement: Measurement,
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
/// candidate's compiler options and [`measure`] the programs over every
/// chunk on the candidate's machine. A pure function of its inputs —
/// identical on every host — which is what makes `cicero tune`
/// reproducible. It reads every field of [`TuneConfig`];
/// a knob it cannot see does not belong in the search space.
///
/// # Errors
///
/// [`TuneError::Compile`] when a workload pattern fails to compile under
/// the candidate's compiler options.
pub fn evaluate(workload: &Benchmark, config: &TuneConfig) -> Result<CostReport, TuneError> {
    let compiler = Compiler::with_options(config.compiler);
    let mut d_offset = 0u64;
    let mut code_size = 0usize;
    let mut programs = Vec::with_capacity(workload.patterns.len());
    for pattern in &workload.patterns {
        let compiled = compiler
            .compile(pattern)
            .map_err(|e| TuneError::Compile(format!("`{pattern}`: {e}")))?;
        d_offset += compiled.d_offset();
        code_size += compiled.code_size();
        programs.push(compiled.into_program());
    }
    let measurement = measure(&programs, &workload.chunks, &config.arch);
    let cost = if measurement.hit_cycle_limit { CYCLE_LIMIT_COST } else { measurement.avg_time_us };
    Ok(CostReport { cost, measurement, d_offset, code_size })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload() -> Benchmark {
        Benchmark::from_patterns(&["ab+c".to_owned(), "x[yz]w".to_owned()])
    }

    #[test]
    fn evaluation_is_deterministic() {
        let workload = tiny_workload();
        let config = TuneConfig::default();
        let a = evaluate(&workload, &config).unwrap();
        let b = evaluate(&workload, &config).unwrap();
        assert_eq!(a, b);
        assert!(a.measurement.cycles > 0);
        assert!(a.cost > 0.0);
        assert!(a.measurement.avg_energy_wus > 0.0);
    }

    #[test]
    fn evaluation_sees_config_differences() {
        let workload = tiny_workload();
        let default = evaluate(&workload, &TuneConfig::default()).unwrap();
        let mut small = TuneConfig::default();
        small.arch.cache.lines = 1;
        small.arch.cache.line_size = 1;
        let starved = evaluate(&workload, &small).unwrap();
        // A one-line icache cannot beat the default geometry.
        assert!(starved.measurement.icache_hit_rate <= default.measurement.icache_hit_rate);
    }

    #[test]
    fn compile_errors_name_the_pattern() {
        let workload = Benchmark {
            name: "BAD",
            patterns: vec!["(".to_owned()],
            chunks: vec![b"abc".to_vec()],
        };
        let err = evaluate(&workload, &TuneConfig::default()).unwrap_err();
        assert!(matches!(err, TuneError::Compile(ref msg) if msg.contains('(')), "{err}");
    }
}
