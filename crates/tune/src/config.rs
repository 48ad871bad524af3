//! One point in the compiler × architecture search space.

use cicero_core::CompilerOptions;
use cicero_sim::ArchConfig;

/// Everything the tuner may decide — and nothing the cost function does
/// not read: compiler toggles + pass order, and the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneConfig {
    /// Compiler configuration (includes [`pass_order`]).
    ///
    /// [`pass_order`]: CompilerOptions::pass_order
    pub compiler: CompilerOptions,
    /// The simulated machine. The search moves its organization, cores,
    /// engines, `CC_ID` and icache geometry; the other fields keep the
    /// presets' values.
    pub arch: ArchConfig,
}

impl Default for TuneConfig {
    /// The built-in defaults every other layer uses — the baseline every
    /// tuning run must beat or match: the optimized compiler on the CLI's
    /// `NEW 16x1 CORES` machine.
    fn default() -> TuneConfig {
        TuneConfig {
            compiler: CompilerOptions::optimized(),
            arch: ArchConfig::new_organization(16, 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_the_stack_defaults() {
        let config = TuneConfig::default();
        assert_eq!(config.compiler, CompilerOptions::optimized());
        assert_eq!(config.arch.name(), "NEW 16x1 CORES");
    }
}
