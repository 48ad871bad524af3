//! The sweep: every point of the space in index order, the default first,
//! until the budget runs out.

use std::time::Instant;

use cicero_telemetry::Telemetry;
use workloads::Benchmark;

use crate::config::TuneConfig;
use crate::cost::{evaluate, CostReport};
use crate::space::SearchSpace;
use crate::TuneError;

/// How much of the space to sweep. Either way the sweep visits a prefix
/// of the same index order, so a budget only decides where it stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// At most this many cost evaluations. This is the deterministic
    /// budget: identical workload + budget visit identical candidates.
    Evals(usize),
    /// Stop once this much wall-clock has elapsed. Inherently
    /// machine-dependent; reproducibility is only promised for
    /// [`Budget::Evals`].
    TimeMs(u64),
}

/// What a tuning run concluded.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The winning config. Never worse than [`TuneConfig::default`]: the
    /// default is always candidate zero and the incumbent only changes on
    /// strictly lower cost.
    pub best: TuneConfig,
    /// The winner's evaluation.
    pub best_report: CostReport,
    /// The baseline's evaluation (for tuned-vs-default reporting).
    pub default_report: CostReport,
    /// Cost evaluations actually performed.
    pub evals: usize,
}

/// Sweep `space` in index order for the lowest-cost config on `workload`.
///
/// Index 0 is the default config, evaluated first; each later index
/// replaces the incumbent only on strictly lower cost, so ties resolve to
/// the lowest index — the most-default config. A budget that covers the
/// space makes the winner an optimum; a smaller one a deterministic prefix.
///
/// Telemetry (when given): a `tune.evals` counter and `tune.best_cost` /
/// `tune.default_cost` gauges.
///
/// # Errors
///
/// [`TuneError::Invalid`] for a workload with no patterns or no chunks
/// (nothing to average over), or a zero budget;
/// [`TuneError::Compile`] if the *default* config cannot compile the
/// workload (candidate compile failures just disqualify the candidate).
pub fn tune(
    workload: &Benchmark,
    space: &SearchSpace,
    budget: Budget,
    telemetry: Option<&Telemetry>,
) -> Result<TuneOutcome, TuneError> {
    if workload.patterns.is_empty() {
        return Err(TuneError::Invalid("workload has no patterns".to_owned()));
    }
    if workload.chunks.is_empty() {
        return Err(TuneError::Invalid("workload has no input chunks".to_owned()));
    }
    if budget == Budget::Evals(0) {
        return Err(TuneError::Invalid("budget must allow at least one eval".to_owned()));
    }
    let started = Instant::now();
    let exhausted = |evals: usize| match budget {
        Budget::Evals(max) => evals >= max,
        Budget::TimeMs(ms) => started.elapsed().as_millis() >= u128::from(ms),
    };
    // The baseline is always candidate zero — and its failure is the
    // run's failure: a tuner that cannot score the default has nothing
    // sound to compare against.
    let default_report = evaluate(workload, &TuneConfig::default())?;
    let (mut best, mut best_report) = (TuneConfig::default(), default_report);
    let mut evals = 1usize;
    for index in 1..space.size() {
        if exhausted(evals) {
            break;
        }
        let config = space.config_at(index);
        evals += 1;
        match evaluate(workload, &config) {
            Ok(report) if report.cost < best_report.cost => (best, best_report) = (config, report),
            // A candidate that fails to compile is disqualified.
            Ok(_) | Err(TuneError::Compile(_)) => {}
            Err(e) => return Err(e),
        }
    }

    if let Some(t) = telemetry {
        t.counter_add("tune.evals", evals as u64);
        t.gauge_set("tune.best_cost", best_report.cost);
        t.gauge_set("tune.default_cost", default_report.cost);
    }
    debug_assert!(best_report.cost <= default_report.cost, "tuned can never lose to default");
    Ok(TuneOutcome { best, best_report, default_report, evals })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> Benchmark {
        Benchmark::from_patterns(&["ab+c".to_owned(), "th(is|at)".to_owned()])
    }

    #[test]
    fn a_covering_budget_sweeps_the_space_and_beats_or_matches_default() {
        let workload = workload();
        let space = SearchSpace::compiler_only();
        let outcome = tune(&workload, &space, Budget::Evals(100), None).unwrap();
        assert_eq!(outcome.evals, space.size());
        assert!(outcome.best_report.cost <= outcome.default_report.cost);
    }

    #[test]
    fn an_eval_budget_sweeps_a_prefix_of_the_index_order() {
        let workload = workload();
        let space = SearchSpace::full();
        let outcome = tune(&workload, &space, Budget::Evals(12), None).unwrap();
        assert_eq!(outcome.evals, 12);
        let prefix_best = (0..12)
            .map(|i| evaluate(&workload, &space.config_at(i)).unwrap().cost)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(outcome.best_report.cost, prefix_best);
    }

    #[test]
    fn telemetry_counters_land_in_the_tune_namespace() {
        let workload = workload();
        let telemetry = Telemetry::new();
        let space = SearchSpace::compiler_only();
        tune(&workload, &space, Budget::Evals(20), Some(&telemetry)).unwrap();
        let summary = telemetry.render_summary();
        assert!(summary.contains("tune.evals"), "{summary}");
        assert!(summary.contains("tune.best_cost"), "{summary}");
    }

    #[test]
    fn zero_budget_and_empty_workloads_are_rejected() {
        let space = SearchSpace::compiler_only();
        assert!(matches!(
            tune(&workload(), &space, Budget::Evals(0), None),
            Err(TuneError::Invalid(_))
        ));
        let empty = Benchmark { name: "EMPTY", patterns: vec![], chunks: vec![] };
        assert!(matches!(tune(&empty, &space, Budget::Evals(5), None), Err(TuneError::Invalid(_))));
    }

    #[test]
    fn a_workload_without_chunks_is_rejected() {
        let no_input =
            Benchmark { name: "NO-INPUT", patterns: vec!["ab".to_owned()], chunks: vec![] };
        let err = tune(&no_input, &SearchSpace::compiler_only(), Budget::Evals(5), None);
        assert!(matches!(err, Err(TuneError::Invalid(ref m)) if m.contains("chunks")), "{err:?}");
    }

    #[test]
    fn time_budget_terminates() {
        let workload = workload();
        let space = SearchSpace::full();
        let outcome = tune(&workload, &space, Budget::TimeMs(50), None).unwrap();
        assert!(outcome.evals >= 1, "at least the default is evaluated");
    }
}
