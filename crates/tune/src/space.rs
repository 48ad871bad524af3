//! The search space: per-axis candidate values, enumerable by index.
//!
//! Every axis lists its built-in default value *first*, so index 0 of the
//! whole space is exactly [`TuneConfig::default`] — exhaustive sweeps
//! always cover the baseline, and the searcher's "default is candidate
//! zero" guarantee falls out of the layout rather than a special case.

use regex_dialect::transforms::PassOrder;

use crate::config::{ArchParams, OrganizationKind, TuneConfig};

/// One candidate machine shape (organization × cores × engines × CC_ID).
/// Pre-combined into a single axis because the dimensions are coupled:
/// the new organization pairs one core per FIFO, so its `CC_ID` is fixed
/// by the core count, while the old organization can vary `CC_ID` freely.
#[derive(Debug, Clone, Copy)]
struct ArchShape {
    organization: OrganizationKind,
    cores_per_engine: usize,
    engines: usize,
    cc_id_bits: u32,
}

/// The axes of the compiler × architecture space.
///
/// [`SearchSpace::full`] is the standard space (288 points): pass order
/// (6) × leading reduction (2) × machine shape (6) × icache geometry (4).
/// Every axis is one `cost::evaluate` reads; `tests/tune_axes.rs` fails
/// when one is added that it does not.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    pass_orders: Vec<PassOrder>,
    leading: Vec<bool>,
    shapes: Vec<ArchShape>,
    caches: Vec<(usize, usize, u64)>,
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
        SearchSpace {
            pass_orders: PassOrder::all().to_vec(),
            leading: vec![false, true],
            shapes: vec![
                // The CLI/default machine first.
                ArchShape {
                    organization: OrganizationKind::New,
                    cores_per_engine: 16,
                    engines: 1,
                    cc_id_bits: 4,
                },
                ArchShape {
                    organization: OrganizationKind::New,
                    cores_per_engine: 8,
                    engines: 1,
                    cc_id_bits: 3,
                },
                ArchShape {
                    organization: OrganizationKind::New,
                    cores_per_engine: 8,
                    engines: 2,
                    cc_id_bits: 3,
                },
                ArchShape {
                    organization: OrganizationKind::New,
                    cores_per_engine: 4,
                    engines: 2,
                    cc_id_bits: 2,
                },
                ArchShape {
                    organization: OrganizationKind::Old,
                    cores_per_engine: 1,
                    engines: 4,
                    cc_id_bits: 3,
                },
                ArchShape {
                    organization: OrganizationKind::Old,
                    cores_per_engine: 1,
                    engines: 8,
                    cc_id_bits: 3,
                },
            ],
            caches: vec![(8, 4, 4), (4, 4, 4), (16, 4, 4), (8, 8, 4)],
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

    /// The config for explicit per-axis indices (the searcher's working
    /// representation — mutation flips one slot).
    pub fn config_from_indices(&self, indices: &[usize]) -> TuneConfig {
        assert_eq!(indices.len(), self.axis_sizes().len(), "one index per axis");
        let shape = self.shapes[indices[2]];
        let (lines, line_size, miss_penalty) = self.caches[indices[3]];
        let mut config = TuneConfig::default();
        config.compiler.pass_order = self.pass_orders[indices[0]];
        config.compiler.shortest_match_leading = self.leading[indices[1]];
        config.arch = ArchParams {
            organization: shape.organization,
            cores_per_engine: shape.cores_per_engine,
            engines: shape.engines,
            cc_id_bits: shape.cc_id_bits,
            cache_lines: lines,
            cache_line_size: line_size,
            cache_miss_penalty: miss_penalty,
        };
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
            let seen: std::collections::HashSet<_> =
                (0..space.size()).map(|i| space.config_at(i)).collect();
            assert_eq!(seen.len(), points, "every index yields a distinct config");
        }
    }

    #[test]
    fn full_space_expands_to_valid_machines() {
        let space = SearchSpace::full();
        // Every expansion must satisfy the simulator's constructor
        // invariants (power-of-two cores…).
        for i in 0..space.size() {
            let config = space.config_at(i);
            let arch = config.arch.to_arch_config();
            assert!(arch.engines >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let space = SearchSpace::compiler_only();
        let _ = space.config_at(space.size());
    }
}
