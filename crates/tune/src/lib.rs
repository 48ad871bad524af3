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
//!   pass order and simulated architecture parameters. `Copy + Hash +
//!   Eq`, so it keys the memoization table directly.
//! * [`SearchSpace`] — the axes and their candidate values, enumerable by
//!   index (mixed-radix), so exhaustive sweeps and seeded sampling draw
//!   from the same deterministic ordering.
//! * [`cost::evaluate`] — the one cost function: simulated cycles (+
//!   icache misses as the tie-breaker), a pure function of `(workload,
//!   config)` that reads every field of the config. A knob it cannot
//!   see is not an axis.
//! * [`tune`] — the searcher: exhaustive when the budget covers the
//!   space (the default), seeded random + greedy mutation under a
//!   tighter cap, memoized by config. Deterministic given a seed: the
//!   RNG is a [`rng::SplitMix64`] and the default config is always
//!   candidate zero, so the winner never loses to the baseline.
//! * [`TuneFile`] — the versioned `tune.toml` serialization: strict
//!   parser (unknown keys, duplicates, corruption, and future versions
//!   all fail loudly), byte-deterministic renderer (no timestamps).
//!
//! Telemetry lands under the `tune.*` namespace (see
//! `docs/OBSERVABILITY.md`).

pub mod config;
pub mod cost;
pub mod file;
pub mod rng;
pub mod search;
pub mod space;
pub mod workload;

pub use config::{ArchParams, OrganizationKind, TuneConfig};
pub use cost::CostReport;
pub use file::TuneFile;
pub use search::{tune, Budget, TuneOutcome};
pub use space::SearchSpace;
pub use workload::Workload;

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
