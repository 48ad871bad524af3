//! Architecture configurations (the paper's `NxM CORES` naming).

use std::fmt;
use std::str::FromStr;

/// Architectural organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Organization {
    /// Original Cicero (§2.2): one time-multiplexed core per engine,
    /// cross-engine load balancing over a ring.
    Old,
    /// Proposed organization (§4): `2^CC_ID` cores per engine, one per
    /// FIFO; in-engine balancing, only the last core feeds the ring.
    New,
}

/// Instruction-cache geometry (per core, direct-mapped).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Number of cache lines.
    pub lines: usize,
    /// Instructions per line (must be a power of two).
    pub line_size: usize,
    /// Central-memory service time for one line fill, in cycles.
    pub miss_penalty: u64,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig { lines: 8, line_size: 4, miss_penalty: 4 }
    }
}

/// A full architecture configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchConfig {
    /// Organization (old vs new).
    pub organization: Organization,
    /// Cores per engine: 1 for [`Organization::Old`], `2^CC_ID` for
    /// [`Organization::New`].
    pub cores_per_engine: usize,
    /// Number of engines (ring topology when > 1).
    pub engines: usize,
    /// `CC_ID`: the window holds `2^CC_ID` characters.
    pub cc_id_bits: u32,
    /// Per-core instruction cache.
    pub cache: CacheConfig,
    /// Cross-engine transfer latency in cycles (the paper's "minimum 2").
    pub lb_latency: u64,
    /// Load difference (local − neighbor) above which a new thread is
    /// offloaded to the ring successor.
    pub lb_threshold: usize,
    /// Thompson-set deduplication in the FIFOs (the hardware's duplicate
    /// filter). Disable only for the ablation study; without it the
    /// simulator guards against ε-cycles with a per-position work cap.
    pub dedup: bool,
    /// Safety valve: abort after this many cycles.
    pub max_cycles: u64,
}

impl ArchConfig {
    /// The original Cicero: `1xM` — one core per engine, `M` engines in a
    /// ring, `CC_ID = 3` (the original paper's best configuration).
    pub fn old_organization(engines: usize) -> ArchConfig {
        assert!(engines >= 1, "at least one engine");
        ArchConfig {
            organization: Organization::Old,
            cores_per_engine: 1,
            engines,
            cc_id_bits: 3,
            cache: CacheConfig::default(),
            lb_latency: 2,
            lb_threshold: 0,
            dedup: true,
            max_cycles: 200_000_000,
        }
    }

    /// The proposed organization: `NxM` — `N = 2^CC_ID` cores packed per
    /// engine, `M` engines.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is not a power of two ≥ 2 (the design pairs one
    /// core per FIFO and the FIFO count is `2^CC_ID`).
    pub fn new_organization(cores: usize, engines: usize) -> ArchConfig {
        assert!(cores.is_power_of_two() && cores >= 2, "cores must be a power of two >= 2");
        assert!(engines >= 1, "at least one engine");
        ArchConfig {
            organization: Organization::New,
            cores_per_engine: cores,
            engines,
            cc_id_bits: cores.trailing_zeros(),
            cache: CacheConfig::default(),
            lb_latency: 2,
            lb_threshold: 0,
            dedup: true,
            max_cycles: 200_000_000,
        }
    }

    /// Window size in characters (`2^CC_ID`).
    pub fn window(&self) -> usize {
        1usize << self.cc_id_bits
    }

    /// Total cores across all engines.
    pub fn total_cores(&self) -> usize {
        self.cores_per_engine * self.engines
    }

    /// Total FIFOs across all engines (each engine has `2^CC_ID`).
    pub fn total_fifos(&self) -> usize {
        self.window() * self.engines
    }

    /// The paper's display name, e.g. `OLD 1x9 CORES` / `NEW 16x1 CORES`.
    pub fn name(&self) -> String {
        let tag = match self.organization {
            Organization::Old => "OLD",
            Organization::New => "NEW",
        };
        format!("{tag} {}x{} CORES", self.cores_per_engine, self.engines)
    }

    /// Clock in MHz: 150 unless the resource model derates to 100
    /// (Table 5 footnote: configurations using > 70% LUTs or > 90% BRAMs).
    pub fn clock_mhz(&self) -> f64 {
        crate::resources::clock_mhz(self)
    }
}

impl fmt::Display for ArchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Largest `cores × engines` product a parsed spec may name. The biggest
/// shape the paper evaluates is `32x9` (288 cores); a spec arrives from the
/// command line or the network and the simulator allocates per core, so
/// the product is bounded before anything is built.
const MAX_TOTAL_CORES: usize = 512;

/// The paper's `NxM` naming as the CLI's `--config` and the server's
/// `"config"` / `X-Cicero-Config` spell it: `1xM` is the old organization
/// with `M` engines, `NxM` with `N` a power of two ≥ 2 the new one; at
/// least one engine, at most 512 cores in total.
impl FromStr for ArchConfig {
    type Err = String;

    fn from_str(spec: &str) -> Result<ArchConfig, String> {
        let (n, m) = spec
            .split_once('x')
            .ok_or_else(|| format!("config {spec:?} is not of the form NxM"))?;
        let cores: usize = n.parse().map_err(|_| format!("bad core count in {spec:?}"))?;
        let engines: usize = m.parse().map_err(|_| format!("bad engine count in {spec:?}"))?;
        if !cores.is_power_of_two() {
            return Err(format!(
                "core count {cores} must be 1 (old organization) or a power of two"
            ));
        }
        if engines == 0 {
            return Err(format!("config {spec:?} needs at least one engine"));
        }
        if engines > MAX_TOTAL_CORES / cores {
            return Err(format!(
                "config {spec:?} has more than {MAX_TOTAL_CORES} cores (cores x engines)"
            ));
        }
        Ok(if cores == 1 {
            ArchConfig::old_organization(engines)
        } else {
            ArchConfig::new_organization(cores, engines)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let old = ArchConfig::old_organization(9);
        assert_eq!(old.name(), "OLD 1x9 CORES");
        assert_eq!(old.window(), 8);
        assert_eq!(old.total_cores(), 9);
        assert_eq!(old.total_fifos(), 72);

        let new = ArchConfig::new_organization(16, 1);
        assert_eq!(new.name(), "NEW 16x1 CORES");
        assert_eq!(new.cc_id_bits, 4);
        assert_eq!(new.window(), 16);
        assert_eq!(new.total_fifos(), 16);
    }

    #[test]
    fn specs_parse_to_the_presets_and_reject_what_the_constructors_would_panic_on() {
        assert_eq!("1x9".parse(), Ok(ArchConfig::old_organization(9)));
        assert_eq!("16x1".parse(), Ok(ArchConfig::new_organization(16, 1)));
        assert_eq!("32x9".parse(), Ok(ArchConfig::new_organization(32, 9)));
        assert_eq!("1x512".parse(), Ok(ArchConfig::old_organization(MAX_TOTAL_CORES)));
        let bad = "16 x ax1 8x 8x-1 8x0 1x0 0x1 0x0 3x1 9x1 1x513 32x17 1x1000000 1024x1 \
                   2x18446744073709551615";
        for bad in bad.split(' ').chain([""]) {
            assert!(bad.parse::<ArchConfig>().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn new_org_requires_power_of_two_cores() {
        let _ = ArchConfig::new_organization(9, 1);
    }
}
