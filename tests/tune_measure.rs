//! One measure, one workload: `cicero tune` scores a candidate exactly as
//! the paper's figures score a cell, on exactly the suites they run, so
//! the tuner's winner and the figures' winner cannot disagree for want of
//! a shared yardstick.

use cicero::tune::cost::evaluate;
use cicero::tune::{pack, TuneConfig};
use cicero_bench::{suites, CompiledSuite, Scale};
use cicero_sim::{measure, ArchConfig};

/// Each pack is its suite of the paper bench's default scale, and the
/// default candidate's score is the grid's NEW 16x1 / new-compiler cell.
#[test]
fn every_pack_is_the_default_scale_suite_and_scores_as_the_grid_cell() {
    for suite in suites(Scale::DEFAULT) {
        let workload = pack(&suite.name.to_lowercase()).unwrap();
        assert_eq!(workload.patterns, suite.patterns, "{}", suite.name);
        assert_eq!(workload.chunks, suite.chunks, "{}", suite.name);

        let report = evaluate(&workload, &TuneConfig::default()).unwrap();
        let cell = measure(
            &CompiledSuite::build(&suite).new_opt,
            &suite.chunks,
            &ArchConfig::new_organization(16, 1),
        );
        let scored = report.measurement;
        assert_eq!(scored.cycles, cell.cycles, "{}", suite.name);
        assert_eq!(scored.avg_time_us, cell.avg_time_us, "{}", suite.name);
        assert_eq!(scored.avg_energy_wus, cell.avg_energy_wus, "{}", suite.name);
        assert_eq!(report.cost, cell.avg_time_us, "{}: the cost is the grid's time", suite.name);
    }
}
