//! The low-level `cicero` MLIR dialect (§3.3 of the paper): an IR in
//! one-to-one correspondence with the Cicero ISA, plus the lowering from
//! the high-level `regex` dialect, the back-end *Jump Simplification*
//! optimization (§5), and final code generation.
//!
//! Operations mirror Table 4:
//!
//! | Cicero ISA     | Operation                | Arguments          |
//! |----------------|--------------------------|--------------------|
//! | Accept         | `cicero.accept`          | —                  |
//! | Accept Partial | `cicero.accept_partial`  | —                  |
//! | Split          | `cicero.split`           | successor block    |
//! | Jump           | `cicero.jump`            | successor block    |
//! | MatchAny       | `cicero.match_any`       | —                  |
//! | Match          | `cicero.match_char`      | `target_char`      |
//! | NotMatch       | `cicero.not_match_char`  | `target_char`      |
//!
//! A containing `cicero.program` op holds the instructions in the blocks
//! of its one region, in layout order — this is where "the process maps
//! basic blocks to instruction memory" (§3): the layout *is* the memory
//! image. A block starts where a branch lands, execution falls through
//! from one block to the next, and a `split` or `jump` names the block it
//! branches to by its index in the region. Blocks become addresses only at
//! code generation, so the Jump Simplification rewrites never re-patch
//! addresses — the premature-lowering pain of the old compiler that §2.1
//! describes.
//!
//! # Lowering
//!
//! [`lower_to_cicero`] performs the Thompson-
//! style construction in one sequential walk, reproducing the exact layout
//! of the paper's Listing 2 (the shared acceptance op placed after the
//! first alternative, `.*` prefix loop of `SPLIT / MATCH_ANY / JMP`), and
//! refuses a program that outgrows the ISA's address space while emitting.
//! Negated character classes lower to `NotMatchCharOp` chains ending in
//! `MatchAnyOp`, and wide positive classes automatically use the same
//! encoding on their complement when it is smaller (§3.3).
//!
//! # Example
//!
//! ```
//! let ast = regex_frontend::parse("ab|cd")?;
//! let regex_ir = regex_dialect::ast_to_ir(&ast);
//! let mut cicero_ir = cicero_dialect::lower_to_cicero(&regex_ir)?;
//! cicero_dialect::jump_simplify(&mut cicero_ir);
//! let program = cicero_dialect::codegen(&cicero_ir)?;
//! assert_eq!(program.total_jump_offset(), 9); // Listing 2, right column
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod codegen;
pub mod jump_simplify;
pub mod lowering;
pub mod ops;

pub use codegen::{codegen, CodegenError};
pub use jump_simplify::{jump_simplify, JumpSimplificationPass};
pub use lowering::{lower_multi, lower_to_cicero};
pub use ops::{dialect, names};

/// Options for the low-level (`cicero`-dialect) pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowLevelOptions {
    /// Back-end Jump Simplification (§5), on by default.
    pub jump_simplification: bool,
}

impl Default for LowLevelOptions {
    fn default() -> LowLevelOptions {
        LowLevelOptions { jump_simplification: true }
    }
}

/// Register the enabled `cicero`-dialect transforms on a pass manager.
///
/// The dialect's single registration point, mirroring
/// `regex_dialect::transforms::build_pipeline`: drivers build the
/// low-level pipeline here, for single patterns and sets alike, so every
/// back-end transform runs under the pass manager and lands in its
/// per-pass report.
pub fn build_pipeline(pm: &mut mlir_lite::PassManager, options: &LowLevelOptions) {
    if options.jump_simplification {
        pm.add_pass(Box::new(JumpSimplificationPass));
    }
}
