//! The rule that keeps a dead axis out of `cicero tune`: every axis of
//! the search space must be one the cost function can see. An axis whose
//! every value scores identically multiplies the space, wastes mutation
//! proposals on cost-equivalent configs and rides into `tune.toml` as
//! noise that `--tuned-config` then installs.

use cicero::tune::cost::evaluate;
use cicero::tune::{pack, SearchSpace};

/// On the `brill4` pack, each axis of `SearchSpace::full()` has a
/// non-default value that changes the cost with all other axes at their
/// defaults.
#[test]
fn every_axis_of_the_full_space_moves_the_cost_on_its_own() {
    let workload = pack("brill4").unwrap();
    let space = SearchSpace::full();
    let sizes = space.axis_sizes();
    let origin = vec![0; sizes.len()];
    let cost_at =
        |indices: &[usize]| evaluate(&workload, &space.config_from_indices(indices)).unwrap().cost;
    let default_cost = cost_at(&origin);
    for (axis, &size) in sizes.iter().enumerate() {
        let moves = (1..size).any(|value| {
            let mut indices = origin.clone();
            indices[axis] = value;
            cost_at(&indices) != default_cost
        });
        assert!(
            moves,
            "axis {axis} ({size} values) never changes the cost on brill4: the cost function \
             does not read it, so it does not belong in the search space"
        );
    }
}
