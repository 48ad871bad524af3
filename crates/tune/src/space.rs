//! The search space: per-axis candidate values, enumerable by index.
//!
//! Every axis lists its built-in default value *first*, so index 0 of the
//! whole space is exactly [`TuneConfig::default`] — exhaustive sweeps
//! always cover the baseline, and the sweep's "default is candidate zero"
//! guarantee falls out of the layout rather than a special case.

use cicero_sim::{ArchConfig, CacheConfig};
use regex_dialect::transforms::PassOrder;

use crate::config::TuneConfig;

/// The axes of the compiler × architecture space.
///
/// [`SearchSpace::full`] is the standard space (288 points): pass order
/// (6) × leading reduction (2) × machine shape (6) × icache geometry (4).
/// A shape combines organization, cores, engines and `CC_ID` in one axis
/// because they are coupled: the new organization pairs one core with each
/// FIFO, so its `CC_ID` is fixed by the core count. Every axis is one
/// `cost::evaluate` reads; `tests/tune_axes.rs` fails when one is added
/// that it does not.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    pass_orders: Vec<PassOrder>,
    leading: Vec<bool>,
    shapes: Vec<ArchConfig>,
    caches: Vec<CacheConfig>,
}

impl Default for SearchSpace {
    fn default() -> SearchSpace {
        SearchSpace::full()
    }
}

impl SearchSpace {
    /// The standard search space. Defaults-first per axis (see the module
    /// docs).
    pub fn full() -> SearchSpace {
        let cache = |lines, line_size| CacheConfig { lines, line_size, miss_penalty: 4 };
        SearchSpace {
            pass_orders: PassOrder::all().to_vec(),
            leading: vec![false, true],
            shapes: vec![
                // The CLI/default machine first.
                ArchConfig::new_organization(16, 1),
                ArchConfig::new_organization(8, 1),
                ArchConfig::new_organization(8, 2),
                ArchConfig::new_organization(4, 2),
                ArchConfig::old_organization(4),
                ArchConfig::old_organization(8),
            ],
            caches: vec![cache(8, 4), cache(4, 4), cache(16, 4), cache(8, 8)],
        }
    }

    /// A compiler-only slice of the space (machine pinned to the
    /// default): pass order × leading reduction, 12 points — small enough
    /// that any realistic budget covers it exhaustively.
    pub fn compiler_only() -> SearchSpace {
        let mut space = SearchSpace::full();
        space.shapes.truncate(1);
        space.caches.truncate(1);
        space
    }

    /// Candidate counts per axis, in index-decomposition order.
    pub fn axis_sizes(&self) -> Vec<usize> {
        vec![self.pass_orders.len(), self.leading.len(), self.shapes.len(), self.caches.len()]
    }

    /// Total number of points.
    pub fn size(&self) -> usize {
        self.axis_sizes().iter().product()
    }

    /// The config at a flat index in `[0, size())`, by mixed-radix
    /// decomposition (axis 0 varies slowest). Index 0 is the default
    /// config.
    pub fn config_at(&self, index: usize) -> TuneConfig {
        assert!(index < self.size(), "index {index} out of range (size {})", self.size());
        let sizes = self.axis_sizes();
        let mut indices = vec![0; sizes.len()];
        let mut rest = index;
        for (slot, &size) in indices.iter_mut().zip(&sizes).rev() {
            *slot = rest % size;
            rest /= size;
        }
        self.config_from_indices(&indices)
    }

    /// The config for explicit per-axis indices.
    pub fn config_from_indices(&self, indices: &[usize]) -> TuneConfig {
        assert_eq!(indices.len(), self.axis_sizes().len(), "one index per axis");
        let mut config = TuneConfig {
            arch: ArchConfig { cache: self.caches[indices[3]], ..self.shapes[indices[2]].clone() },
            ..TuneConfig::default()
        };
        config.compiler.pass_order = self.pass_orders[indices[0]];
        config.compiler.shortest_match_leading = self.leading[indices[1]];
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_zero_is_the_default_config() {
        assert_eq!(SearchSpace::full().config_at(0), TuneConfig::default());
        assert_eq!(SearchSpace::compiler_only().config_at(0), TuneConfig::default());
    }

    #[test]
    fn size_matches_axis_product_and_every_index_is_reachable() {
        for (space, points) in [(SearchSpace::compiler_only(), 12), (SearchSpace::full(), 288)] {
            assert_eq!(space.size(), points);
            let seen: std::collections::HashSet<String> =
                (0..space.size()).map(|i| format!("{:?}", space.config_at(i))).collect();
            assert_eq!(seen.len(), points, "every index yields a distinct config");
        }
    }

    #[test]
    fn full_space_expands_to_valid_machines() {
        let space = SearchSpace::full();
        for i in 0..space.size() {
            assert_eq!(space.config_at(i).arch.validate(), Ok(()), "index {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let space = SearchSpace::compiler_only();
        let _ = space.config_at(space.size());
    }
}
