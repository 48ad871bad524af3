//! Code generation: `cicero.program` → binary-ready [`cicero_isa::Program`].
//!
//! Thanks to the dialect's one-to-one mapping onto the ISA (§3.3), code
//! generation is a single linear walk. The program's region holds its
//! blocks in layout order, so an op's address is its position, a block's
//! address is its start (the sum of the lengths of the blocks before it),
//! and each branch is patched with its successor's start as the walk
//! translates op-for-instruction. "The one-to-one mapping reduces the
//! complexity of the code generation step."

use std::fmt;

use cicero_isa::{Instruction, Program, ProgramError};
use mlir_lite::{Attribute, Operation};

use crate::ops::{attrs, names};

/// Code-generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// The root op was not a `cicero.program`.
    NotAProgram {
        /// The op name found instead.
        found: String,
    },
    /// An op was not translatable (wrong dialect, missing attributes, a
    /// branch without a successor block of the program).
    MalformedOp {
        /// Index of the offending op.
        index: usize,
        /// Description of the problem.
        message: String,
    },
    /// The translated program failed ISA-level validation (e.g. exceeds
    /// the 8192-instruction address space).
    Invalid(ProgramError),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::NotAProgram { found } => {
                write!(f, "expected cicero.program, found {found}")
            }
            CodegenError::MalformedOp { index, message } => {
                write!(f, "op {index} is malformed: {message}")
            }
            CodegenError::Invalid(e) => write!(f, "generated program is invalid: {e}"),
        }
    }
}

impl std::error::Error for CodegenError {}

impl From<ProgramError> for CodegenError {
    fn from(e: ProgramError) -> CodegenError {
        CodegenError::Invalid(e)
    }
}

/// Translate a `cicero.program` into a validated ISA program.
///
/// # Errors
///
/// See [`CodegenError`]. IR that passed
/// [`mlir_lite::Context::verify`] against [`crate::dialect`] can only fail
/// with [`CodegenError::Invalid`] (address-space overflow, or a branch to
/// an empty last block).
pub fn codegen(program: &Operation) -> Result<Program, CodegenError> {
    if !program.is(names::PROGRAM) {
        return Err(CodegenError::NotAProgram { found: program.name().as_str().to_owned() });
    }
    let body = program.only_region();
    let too_long = || CodegenError::Invalid(ProgramError::TooLong { len: body.len() });
    let mut instructions = Vec::with_capacity(body.len());
    for (index, op) in body.ops.iter().enumerate() {
        let target = match op.successors() {
            [] => None,
            &[block] if (block as usize) < body.block_count() => {
                let address = body.block_range(block as usize).start;
                Some(u16::try_from(address).map_err(|_| too_long())?)
            }
            _ => {
                let message = "expected one successor block of the program";
                return Err(CodegenError::MalformedOp { index, message: message.to_owned() });
            }
        };
        instructions.push(translate(op, index, target)?);
    }
    Ok(Program::from_instructions(instructions)?)
}

fn translate(
    op: &Operation,
    index: usize,
    target: Option<u16>,
) -> Result<Instruction, CodegenError> {
    let malformed =
        |message: &str| CodegenError::MalformedOp { index, message: message.to_owned() };
    let char_attr = || {
        op.attr(attrs::TARGET_CHAR)
            .and_then(Attribute::as_char)
            .ok_or_else(|| malformed("missing target_char"))
    };
    let target = || target.ok_or_else(|| malformed("missing successor block"));
    Ok(if op.is(names::ACCEPT) {
        Instruction::Accept
    } else if op.is(names::ACCEPT_PARTIAL) {
        Instruction::AcceptPartial
    } else if op.is(names::ACCEPT_PARTIAL_ID) {
        let id = op.attr(attrs::ID).and_then(Attribute::as_int).and_then(|i| u16::try_from(i).ok());
        Instruction::AcceptPartialId(id.ok_or_else(|| malformed("missing or invalid id"))?)
    } else if op.is(names::MATCH_ANY) {
        Instruction::MatchAny
    } else if op.is(names::MATCH_CHAR) {
        Instruction::Match(char_attr()?)
    } else if op.is(names::NOT_MATCH_CHAR) {
        Instruction::NotMatch(char_attr()?)
    } else if op.is(names::SPLIT) {
        Instruction::Split(target()?)
    } else if op.is(names::JUMP) {
        Instruction::Jump(target()?)
    } else {
        return Err(malformed(&format!("unknown op {}", op.name())));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use mlir_lite::Region;

    #[test]
    fn translates_every_op_kind() {
        let program = ops::program(Region::from_blocks([
            vec![ops::split(1), ops::match_char(b'a'), ops::not_match_char(b'b')],
            vec![],
            vec![ops::match_any(), ops::jump(0)],
            vec![ops::accept_partial(), ops::accept()],
        ]));
        let compiled = codegen(&program).unwrap();
        use Instruction::*;
        assert_eq!(
            compiled.instructions(),
            &[Split(3), Match(b'a'), NotMatch(b'b'), MatchAny, Jump(0), AcceptPartial, Accept]
        );
    }

    #[test]
    fn a_branch_past_the_last_block_is_malformed() {
        let program = ops::program(Region::with_ops(vec![ops::jump(1), ops::accept()]));
        let err = codegen(&program).unwrap_err();
        assert!(matches!(err, CodegenError::MalformedOp { index: 0, .. }), "{err}");
    }

    #[test]
    fn non_program_rejected() {
        let err = codegen(&ops::accept()).unwrap_err();
        assert!(matches!(err, CodegenError::NotAProgram { .. }));
    }

    #[test]
    fn fall_off_end_rejected_via_isa_validation() {
        let program = ops::program(Region::with_ops(vec![ops::match_char(b'a')]));
        assert!(matches!(codegen(&program), Err(CodegenError::Invalid(_))));
    }
}
