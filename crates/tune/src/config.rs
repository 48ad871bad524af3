//! One point in the compiler × architecture search space.
//!
//! [`TuneConfig`] bundles every knob the tuner may move. It is `Copy +
//! Hash + Eq` end to end so the searcher can memoize evaluations keyed by
//! the config itself with no serialization step — which is also why the
//! simulated-architecture axis is expressed as the hashable [`ArchParams`]
//! rather than `cicero_sim::ArchConfig` (whose `lb_*` and safety-valve
//! fields are not part of the search and are re-derived on conversion).

use cicero_core::CompilerOptions;
use cicero_sim::{ArchConfig, CacheConfig, Organization};

/// The architectural organization axis, mirroring
/// [`cicero_sim::Organization`] (kept separate so this crate's config
/// types are self-contained in `tune.toml` serialization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrganizationKind {
    /// Original Cicero: one time-multiplexed core per engine.
    Old,
    /// Proposed organization: `2^CC_ID` cores per engine.
    New,
}

impl OrganizationKind {
    /// The `tune.toml` spelling.
    pub fn token(self) -> &'static str {
        match self {
            OrganizationKind::Old => "old",
            OrganizationKind::New => "new",
        }
    }

    /// Parse the `tune.toml` spelling.
    pub fn from_token(token: &str) -> Option<OrganizationKind> {
        match token {
            "old" => Some(OrganizationKind::Old),
            "new" => Some(OrganizationKind::New),
            _ => None,
        }
    }
}

/// The searched subset of the simulated machine's parameters (§4's
/// organization and CC_ID, §5's icache geometry, plus engine count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArchParams {
    /// Old (1 core/engine) vs new (`2^CC_ID` cores/engine) organization.
    pub organization: OrganizationKind,
    /// Cores per engine: 1 for old, a power of two ≥ 2 for new.
    pub cores_per_engine: usize,
    /// Engine count (ring topology when > 1).
    pub engines: usize,
    /// `CC_ID`: the character window holds `2^CC_ID` bytes.
    pub cc_id_bits: u32,
    /// Per-core icache lines.
    pub cache_lines: usize,
    /// Instructions per icache line (power of two).
    pub cache_line_size: usize,
    /// Line-fill service time in cycles.
    pub cache_miss_penalty: u64,
}

impl Default for ArchParams {
    /// The CLI's default machine: `NEW 16x1 CORES` with the paper's
    /// default cache geometry.
    fn default() -> ArchParams {
        ArchParams::from_arch_config(&ArchConfig::new_organization(16, 1))
    }
}

impl ArchParams {
    /// Project the searched parameters out of a full [`ArchConfig`].
    pub fn from_arch_config(config: &ArchConfig) -> ArchParams {
        ArchParams {
            organization: match config.organization {
                Organization::Old => OrganizationKind::Old,
                Organization::New => OrganizationKind::New,
            },
            cores_per_engine: config.cores_per_engine,
            engines: config.engines,
            cc_id_bits: config.cc_id_bits,
            cache_lines: config.cache.lines,
            cache_line_size: config.cache.line_size,
            cache_miss_penalty: config.cache.miss_penalty,
        }
    }

    /// Expand into a full simulator config. Non-searched fields take the
    /// presets' values (`lb_latency` 2, `lb_threshold` 0, dedup on, the
    /// standard cycle safety valve).
    pub fn to_arch_config(self) -> ArchConfig {
        let mut config = match self.organization {
            OrganizationKind::Old => ArchConfig::old_organization(self.engines),
            OrganizationKind::New => {
                ArchConfig::new_organization(self.cores_per_engine, self.engines)
            }
        };
        config.cc_id_bits = self.cc_id_bits;
        config.cache = CacheConfig {
            lines: self.cache_lines,
            line_size: self.cache_line_size,
            miss_penalty: self.cache_miss_penalty,
        };
        config
    }

    /// The paper's display name for the expanded machine.
    pub fn name(self) -> String {
        self.to_arch_config().name()
    }
}

/// Everything the tuner may decide — and nothing the cost function does
/// not read: compiler toggles + pass order, and the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TuneConfig {
    /// Compiler configuration (includes [`pass_order`]).
    ///
    /// [`pass_order`]: CompilerOptions::pass_order
    pub compiler: CompilerOptions,
    /// Simulated-architecture parameters.
    pub arch: ArchParams,
}

impl Default for TuneConfig {
    /// The built-in defaults every other layer uses — the baseline every
    /// tuning run must beat or match.
    fn default() -> TuneConfig {
        TuneConfig { compiler: CompilerOptions::optimized(), arch: ArchParams::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_params_round_trip_through_arch_config() {
        for config in [
            ArchConfig::old_organization(4),
            ArchConfig::new_organization(8, 2),
            ArchConfig::new_organization(16, 1),
        ] {
            let params = ArchParams::from_arch_config(&config);
            assert_eq!(params.to_arch_config(), config, "{}", config.name());
        }
    }

    #[test]
    fn default_config_matches_the_stack_defaults() {
        let config = TuneConfig::default();
        assert_eq!(config.compiler, CompilerOptions::optimized());
        assert_eq!(config.arch.name(), "NEW 16x1 CORES");
    }

    #[test]
    fn tune_config_is_usable_as_a_hash_key() {
        let mut map = std::collections::HashMap::new();
        map.insert(TuneConfig::default(), 1u32);
        assert_eq!(map.get(&TuneConfig::default()), Some(&1));
    }
}
