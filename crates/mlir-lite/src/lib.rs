//! A minimal MLIR-like IR infrastructure.
//!
//! The CGO'25 paper builds its compiler on MLIR to get *multi-level*
//! intermediate representations: a high-level `regex` dialect for algebraic
//! optimizations and a low-level `cicero` dialect for back-end ones. Rust has
//! no mature MLIR bindings, so this crate reproduces the MLIR abstractions
//! the two dialects actually need, from scratch:
//!
//! * [`Operation`]s carrying a dialect-qualified name, a few attributes
//!   and nested single-block [`Region`]s; op names and attribute keys are
//!   [`Ident`]s each dialect declares once, compared by address as MLIR
//!   compares its context-uniqued names;
//! * [`Attribute`]s (booleans, integers, characters, strings, symbols and
//!   [`ByteSet`]s — the types in Tables 3 and 4 of the paper);
//! * a [`DialectRegistry`](dialect::Context) with per-op definitions and
//!   verifiers ([`Context::verify`] walks the IR recursively, like
//!   `mlir::verify`);
//! * a textual printer/parser pair for the generic operation form (round-
//!   trippable, used for FileCheck-style tests and the IR-dump facilities);
//! * [`RewritePattern`]s applied by a greedy driver that walks the tree
//!   once and re-offers only what a pattern replaced (the moral equivalent
//!   of `applyPatternsAndFoldGreedily`, which backs MLIR canonicalization);
//! * a [`PassManager`] running [`Pass`]es
//!   with optional inter-pass verification and per-pass timing (the paper
//!   reports per-stage compile times in Figure 9).
//!
//! # Deliberate restrictions
//!
//! Unlike full MLIR there are **no SSA values and no multi-block CFG
//! regions**: the `regex` dialect is purely structural (nested regions) and
//! the `cicero` dialect models control flow with symbol references, exactly
//! as the paper describes (§3.3). Dropping the unused machinery keeps the
//! infrastructure small and the invariants airtight.
//!
//! # Example
//!
//! ```
//! use mlir_lite::{Attribute, Operation};
//!
//! let mut op = Operation::new("regex.match_char");
//! op.set_attr("target_char", Attribute::Char(b'a'));
//! let text = op.to_text();
//! assert_eq!(text.trim(), "regex.match_char {target_char = 'a'}");
//! let reparsed = mlir_lite::parse(&text)?;
//! assert_eq!(reparsed, op);
//! # Ok::<(), mlir_lite::ParseError>(())
//! ```

pub mod attribute;
pub mod byteset;
pub mod dialect;
pub mod op;
pub mod parser;
pub mod pass;
pub mod printer;
pub mod rewrite;

pub use attribute::Attribute;
pub use byteset::ByteSet;
pub use dialect::{AttrKind, AttrSpec, Context, Dialect, OpDefinition, VerifyError};
pub use op::{Ident, Name, Operation, Region};
pub use parser::{parse, ParseError};
pub use pass::{Pass, PassError, PassManager, PassReport, PipelineReport};
pub use rewrite::{apply_patterns_greedily, Rewrite, RewriteConfig, RewritePattern, RewriteStats};
