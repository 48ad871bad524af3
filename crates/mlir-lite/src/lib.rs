//! A minimal MLIR-like IR infrastructure.
//!
//! The CGO'25 paper builds its compiler on MLIR to get *multi-level*
//! intermediate representations: a high-level `regex` dialect for algebraic
//! optimizations and a low-level `cicero` dialect for back-end ones. Rust has
//! no mature MLIR bindings, so this crate reproduces the MLIR abstractions
//! the two dialects actually need, from scratch:
//!
//! * [`Operation`]s carrying a dialect-qualified name, an optional
//!   successor block, a few attributes and nested [`Region`]s; op names
//!   and attribute keys are [`Ident`]s each dialect declares once,
//!   compared by address as MLIR compares its context-uniqued names;
//! * regions of blocks of ops, as in MLIR: a branch names the block of
//!   its parent region it may transfer control to by index, and a region
//!   keeps its blocks in layout order, so a block's start is its address;
//! * [`Attribute`]s (booleans, integers, characters, strings and
//!   [`ByteSet`]s — the types in Tables 3 and 4 of the paper);
//! * a [`DialectRegistry`](dialect::Context) with per-op definitions and
//!   verifiers ([`Context::verify`] walks the IR recursively, like
//!   `mlir::verify`, and checks that every successor names a block);
//! * a textual printer/parser pair for the generic operation form (round-
//!   trippable, used for FileCheck-style tests and the IR-dump facilities);
//! * [`RewritePattern`]s, each split as in MLIR into a match half that
//!   declines and a rewrite half that always rewrites, applied by a greedy
//!   driver that walks the tree once, offers a pattern only the ops it
//!   matches, and re-offers only what a pattern replaced (the moral
//!   equivalent of `applyPatternsAndFoldGreedily`, which backs MLIR
//!   canonicalization);
//! * a [`PassManager`] running [`Pass`]es
//!   with optional inter-pass verification and per-pass timing (the paper
//!   reports per-stage compile times in Figure 9).
//!
//! # Deliberate restrictions
//!
//! Unlike full MLIR there are **no SSA values and no block arguments**,
//! and an op names at most one successor block: the `regex`
//! dialect is purely structural (nested single-block regions) and the
//! `cicero` dialect's control flow is its blocks and branches, each naming
//! one block and falling through to the next in layout order (§3.3). Dropping the unused machinery keeps the infrastructure small and
//! the invariants airtight.
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
pub use rewrite::{
    apply_patterns_greedily, Rewrite, RewritePattern, RewriteStats, MAX_REWRITES_PER_OP,
};
