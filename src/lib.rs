//! End-to-end reproduction of *"Combining MLIR Dialects with
//! Domain-Specific Architecture for Efficient Regular Expression
//! Matching"* (CGO 2025): a multi-dialect regex compiler built on an
//! MLIR-like infrastructure, the legacy single-IR compiler it is compared
//! against, and a cycle-level simulator of both Cicero architecture
//! organizations.
//!
//! This facade crate re-exports the whole workspace; see the individual
//! crates for the full APIs:
//!
//! * [`mlir`] — the MLIR-like IR infrastructure (ops, dialects, passes);
//! * [`frontend`] — regex parsing to an AST;
//! * [`regex_dialect`] — the high-level dialect and its transformations;
//! * [`cicero_dialect`] — the low-level dialect, Jump Simplification,
//!   codegen;
//! * [`compiler`] — the new multi-dialect compiler driver;
//! * [`legacy`] — the old single-IR compiler with Code Restructuring;
//! * [`isa`] — the Cicero ISA, encoding, interpreter, `D_offset` metric;
//! * [`hostexec`] — the host-native backend: lowering from the ISA to a
//!   bit-parallel NFA engine (one-, two- and multi-word state masks,
//!   with a literal prefilter) that executes on the host CPU instead of
//!   the simulator;
//! * [`sim`] — the cycle-level DSA simulator with power/resource models;
//! * [`runtime`] — the parallel batch-matching runtime: worker pool over
//!   the simulator fronted by an LRU compiled-program cache;
//! * [`server`] — the std-only HTTP/1.1 match-serving subsystem over the
//!   runtime: admission control, per-request budgets, graceful draining;
//! * [`telemetry`] — spans, metrics, and summary/JSON-lines sinks shared
//!   by the compiler, simulator, CLI, and benchmark drivers;
//! * [`tune`] — the autotuner: seeded search over pass orderings and
//!   architecture parameters, persisting winners to `tune.toml`;
//! * [`oracle`] — the reference Pike-VM matcher (ground truth);
//! * [`difftest`] — the differential fuzzing subsystem: oracle-vs-compiler
//!   equivalence over a configuration matrix, divergence minimization, and
//!   the committed regression corpus;
//! * [`workloads`] — Protomata/Brill-style benchmark generators.
//!
//! # Quick start
//!
//! ```
//! use cicero::prelude::*;
//!
//! // Compile a pattern with the multi-dialect compiler…
//! let compiled = Compiler::new().compile("th(is|at|ose)")?;
//!
//! // …execute it functionally…
//! assert!(cicero::isa::accepts(compiled.program(), b"take that!"));
//!
//! // …or cycle-accurately on the proposed 16-core engine.
//! let report = simulate(compiled.program(), b"take that!", &ArchConfig::new_organization(16, 1));
//! assert!(report.accepted);
//! # Ok::<(), cicero::compiler::CompileError>(())
//! ```

pub use cicero_core as compiler;
pub use cicero_dialect;
pub use cicero_difftest as difftest;
pub use cicero_hostexec as hostexec;
pub use cicero_isa as isa;
pub use cicero_legacy as legacy;
pub use cicero_runtime as runtime;
pub use cicero_server as server;
pub use cicero_sim as sim;
pub use cicero_telemetry as telemetry;
pub use cicero_tune as tune;
pub use mlir_lite as mlir;
pub use regex_dialect;
pub use regex_frontend as frontend;
pub use regex_oracle as oracle;
pub use workloads;

/// The most common imports, for examples and downstream users.
pub mod prelude {
    pub use cicero_core::{compile, Backend, Compiler, CompilerOptions};
    pub use cicero_hostexec::{HostOutcome, HostProgram};
    pub use cicero_isa::{Instruction, Program};
    pub use cicero_legacy::LegacyCompiler;
    pub use cicero_runtime::{
        Budget, BudgetKind, MatchOutcome, Runtime, RuntimeOptions, StreamError, StreamOptions,
        StreamReport,
    };
    pub use cicero_server::{DrainReport, Server, ServerHandle, ServerOptions};
    pub use cicero_sim::{simulate, simulate_batch, simulate_with_telemetry, ArchConfig};
    pub use cicero_telemetry::Telemetry;
    pub use regex_oracle::Oracle;
}
