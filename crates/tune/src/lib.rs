//! `cicero tune`: autotuning over the compiler × architecture space.
//!
//! The paper's core claim is that progressive lowering through the
//! `regex`/`cicero` dialects *exposes* optimization decisions — pass
//! ordering, CC_ID window, engine count, cache geometry — that a fixed
//! pipeline leaves on the table. This crate closes the loop: it searches
//! that space per workload, driven by a measured cost, and persists
//! winners to a versioned `tune.toml` the CLI, runtime, and server load.
//!
//! The moving parts:
//!
//! * [`TuneConfig`] — one point in the search space: compiler toggles +
//!   pass order and the simulated [`cicero_sim::ArchConfig`].
//! * [`SearchSpace`] — the axes and their candidate values, enumerable by
//!   index (mixed-radix), defaults first, so index 0 is the default.
//! * [`cost::evaluate`] — the one cost function: average µs per RE from
//!   [`cicero_sim::measure`], the measure the paper's tables read, so the
//!   tuner's winner is the figures' fastest cell. A pure function of
//!   `(workload, config)` that reads every field of the config. A knob it
//!   cannot see is not an axis.
//! * [`pack`] — the built-in workloads: the paper bench's default-scale
//!   suites, the same generator call, so a pack is what the figures run.
//! * [`tune`] — the sweep: every point in index order, the default first,
//!   the incumbent replaced only on strictly lower cost, until the budget
//!   runs out. A budget that covers the space (the default) finds the
//!   optimum; a smaller one sweeps a deterministic prefix.
//! * [`TuneFile`] — the versioned `tune.toml` serialization: strict
//!   parser (unknown keys, duplicates, corruption, machine shapes the
//!   simulator refuses, and other versions all fail loudly),
//!   byte-deterministic renderer (no timestamps).
//!
//! Telemetry lands under the `tune.*` namespace (see
//! `docs/OBSERVABILITY.md`).

pub mod config;
pub mod cost;
pub mod file;
pub mod search;
pub mod space;

pub use config::TuneConfig;
pub use cost::CostReport;
pub use file::TuneFile;
pub use search::{tune, Budget, TuneOutcome};
pub use space::SearchSpace;

use workloads::{suites, Benchmark, Scale};

/// A built-in workload pack: `protomata`, `brill`, `protomata4`, or
/// `brill4` — that suite of `workloads::suites(Scale::DEFAULT)`, exactly
/// what the paper bench's default-scale figures run.
///
/// # Errors
///
/// [`TuneError::Invalid`] for any other name.
pub fn pack(name: &str) -> Result<Benchmark, TuneError> {
    let unknown = || {
        TuneError::Invalid(format!(
            "unknown workload pack `{name}` (expected protomata, brill, protomata4, or brill4)"
        ))
    };
    suites(Scale::DEFAULT)
        .into_iter()
        .find(|suite| suite.name.to_lowercase() == name)
        .ok_or_else(unknown)
}

/// Errors surfaced by tuning, evaluation, or `tune.toml` handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// A candidate's compilation failed (the pattern is reported).
    Compile(String),
    /// Reading or writing `tune.toml` failed.
    Io(String),
    /// `tune.toml` did not parse or failed validation.
    Parse(String),
    /// The search was asked to do something impossible (empty workload,
    /// zero budget, …).
    Invalid(String),
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::Compile(msg) => write!(f, "compile error: {msg}"),
            TuneError::Io(msg) => write!(f, "io error: {msg}"),
            TuneError::Parse(msg) => write!(f, "tune.toml error: {msg}"),
            TuneError::Invalid(msg) => write!(f, "invalid tuning request: {msg}"),
        }
    }
}

impl std::error::Error for TuneError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::fingerprint;

    #[test]
    fn packs_are_deterministic_and_named() {
        let a = pack("protomata").unwrap();
        let b = pack("protomata").unwrap();
        assert_eq!(a.patterns, b.patterns);
        assert_eq!(a.chunks, b.chunks);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(a.name, "PROTOMATA");
        assert!(pack("nonesuch").is_err());
    }

    #[test]
    fn distinct_packs_have_distinct_fingerprints() {
        let protomata = pack("protomata").unwrap();
        let brill = pack("brill").unwrap();
        assert_ne!(fingerprint(&protomata), fingerprint(&brill));
    }
}
