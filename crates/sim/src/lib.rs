//! Cycle-level simulator of the Cicero domain-specific architecture.
//!
//! Models both architectural organizations of the paper:
//!
//! * the **old** organization (§2.2, Figure 1): each engine has one
//!   *time-multiplexed* three-stage core serving `2^CC_ID` FIFOs, and a
//!   multi-engine ring with distributed *cross-engine* load balancing
//!   (thread transfers cost ≥ 2 cycles, Figure 4);
//! * the **new** organization (§4, Figure 3): one engine packs `2^CC_ID`
//!   cores, one per FIFO/window character, with *in-engine* balancing —
//!   a thread from FIFO `N` can only end up in FIFO `N` or `N+1`, so load
//!   spreads with no interconnect. Multi-engine variants connect only the
//!   last core to the ring (which is why they underperform, Table 5).
//!
//! Microarchitectural detail shared by both: a three-stage pipeline
//! (fetch / execute / second-split-push), a per-core direct-mapped
//! instruction cache backed by the engine's central instruction memory
//! through a single arbitrated port (this is what makes the compiler's
//! `D_offset` locality causally affect cycles, §5), per-character-slot
//! FIFOs with Thompson-set deduplication, and a lockstep window of
//! `2^CC_ID` input characters.
//!
//! The simulator is deterministic; [`simulate`] returns an [`ExecReport`]
//! with cycles, cache statistics, thread movements and the match verdict.
//! Batch drivers use [`simulate_batch`] (one machine, caches warm across
//! inputs, canonical per-run prefetch); the worker pool that spreads a
//! batch over threads lives in `cicero-runtime` and is held to this
//! sequential path report for report. A [`Machine`] also takes its input
//! chunk by chunk ([`Machine::feed`], [`simulate_streaming`]) in bounded
//! memory, with reports byte-identical to the whole-input run.
//! Analytic [`power`] and [`resources`] models (calibrated against the
//! paper's published numbers — see DESIGN.md) complete the evaluation
//! stack for Figures 12–15 and Tables 2/5/6; [`measure`] averages a batch
//! into the per-RE time and energy those tables and `cicero tune` read.
//!
//! # Example
//!
//! ```
//! use cicero_sim::{simulate, ArchConfig};
//!
//! let program = cicero_core::compile("ab|cd").unwrap().into_program();
//! let report = simulate(&program, b"xxxxcdxx", &ArchConfig::new_organization(8, 1));
//! assert!(report.accepted);
//! assert!(report.cycles > 0);
//! ```

pub mod cache;
pub mod config;
pub mod machine;
pub mod power;
pub mod resources;
pub mod stats;
pub mod trace;

pub use cache::CacheCounters;
pub use config::{ArchConfig, CacheConfig, Organization};
pub use machine::{simulate, simulate_batch, simulate_streaming, simulate_with_telemetry, Machine};
pub use power::{measure, power_watts, Measurement};
pub use resources::{resource_usage, ResourceUsage, XCZU3EG};
pub use stats::ExecReport;
pub use trace::{render_trace, TraceEvent, TraceNote};
