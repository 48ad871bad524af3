//! Code generation: `cicero.program` → binary-ready [`cicero_isa::Program`].
//!
//! Thanks to the dialect's one-to-one mapping onto the ISA (§3.3), code
//! generation is a single linear walk: assign each op its address (its
//! position), resolve symbols ([`crate::ops::resolve_targets`]), and
//! translate op-for-instruction. "The one-to-one mapping reduces the
//! complexity of the code generation step."

use std::fmt;

use cicero_isa::{Instruction, Program, ProgramError};
use mlir_lite::{Attribute, Operation};

use crate::ops::{attrs, names, resolve_targets};

/// Code-generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// The root op was not a `cicero.program`.
    NotAProgram {
        /// The op name found instead.
        found: String,
    },
    /// A `split`/`jump` referenced a symbol no op defines.
    UndefinedSymbol {
        /// The dangling symbol.
        symbol: String,
        /// Index of the referencing op.
        index: usize,
    },
    /// An op was not translatable (wrong dialect, missing attributes).
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
            CodegenError::UndefinedSymbol { symbol, index } => {
                write!(f, "op {index} references undefined symbol `{symbol}`")
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
/// with [`CodegenError::Invalid`] (address-space overflow).
pub fn codegen(program: &Operation) -> Result<Program, CodegenError> {
    if !program.is(names::PROGRAM) {
        return Err(CodegenError::NotAProgram { found: program.name().as_str().to_owned() });
    }
    let body = &program.only_region().ops;
    let targets = resolve_targets(body).map_err(|(index, symbol)| {
        CodegenError::UndefinedSymbol { symbol: symbol.to_owned(), index }
    })?;
    let too_long = || CodegenError::Invalid(ProgramError::TooLong { len: body.len() });
    let mut instructions = Vec::with_capacity(body.len());
    for (index, (op, target)) in body.iter().zip(targets).enumerate() {
        let target = target.map(|t| u16::try_from(t).map_err(|_| too_long())).transpose()?;
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
    let target = || target.ok_or_else(|| malformed("missing target symbol"));
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
    use mlir_lite::Attribute;

    fn labeled(mut op: Operation, sym: &str) -> Operation {
        op.set_attr(attrs::SYM_NAME, Attribute::Str(sym.into()));
        op
    }

    #[test]
    fn translates_every_op_kind() {
        let program = ops::program(vec![
            labeled(ops::split("end"), "start"),
            ops::match_char(b'a'),
            ops::not_match_char(b'b'),
            ops::match_any(),
            ops::jump("start"),
            labeled(ops::accept_partial(), "end"),
            ops::accept(),
        ]);
        let compiled = codegen(&program).unwrap();
        use Instruction::*;
        assert_eq!(
            compiled.instructions(),
            &[Split(5), Match(b'a'), NotMatch(b'b'), MatchAny, Jump(0), AcceptPartial, Accept,]
        );
    }

    #[test]
    fn undefined_symbol_reported() {
        let program = ops::program(vec![ops::jump("ghost"), ops::accept()]);
        assert_eq!(
            codegen(&program),
            Err(CodegenError::UndefinedSymbol { symbol: "ghost".to_owned(), index: 0 })
        );
    }

    #[test]
    fn non_program_rejected() {
        let err = codegen(&ops::accept()).unwrap_err();
        assert!(matches!(err, CodegenError::NotAProgram { .. }));
    }

    #[test]
    fn fall_off_end_rejected_via_isa_validation() {
        let program = ops::program(vec![ops::match_char(b'a')]);
        assert!(matches!(codegen(&program), Err(CodegenError::Invalid(_))));
    }
}
