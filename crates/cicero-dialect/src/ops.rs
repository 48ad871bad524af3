//! Operation definitions and verifiers for the `cicero` dialect.

use mlir_lite::{AttrKind, AttrSpec, Attribute, Dialect, OpDefinition, Operation, Region};

/// Fully-qualified operation names.
pub mod names {
    use mlir_lite::Ident;

    /// The container: the instruction blocks in layout order, in one
    /// region.
    pub static PROGRAM: &Ident = &Ident::new("cicero.program");
    /// Accept iff at end of input.
    pub static ACCEPT: &Ident = &Ident::new("cicero.accept");
    /// Accept at any point of the input.
    pub static ACCEPT_PARTIAL: &Ident = &Ident::new("cicero.accept_partial");
    /// Accept anywhere and report the matched RE's identifier (the
    /// Future-Work multi-matching extension).
    pub static ACCEPT_PARTIAL_ID: &Ident = &Ident::new("cicero.accept_partial_id");
    /// Fork: fall through and branch to the successor block.
    pub static SPLIT: &Ident = &Ident::new("cicero.split");
    /// Unconditional branch to the successor block.
    pub static JUMP: &Ident = &Ident::new("cicero.jump");
    /// Consume any character.
    pub static MATCH_ANY: &Ident = &Ident::new("cicero.match_any");
    /// Consume a specific character.
    pub static MATCH_CHAR: &Ident = &Ident::new("cicero.match_char");
    /// Assert (without consuming) the character differs.
    pub static NOT_MATCH_CHAR: &Ident = &Ident::new("cicero.not_match_char");
}

/// Attribute keys.
pub mod attrs {
    use mlir_lite::Ident;

    /// `cicero.match_char`/`cicero.not_match_char`: the character (the
    /// `regex` dialect's key: a name is declared once).
    pub use regex_dialect::ops::attrs::TARGET_CHAR;
    /// `cicero.accept_partial_id`: the reported RE identifier.
    pub static ID: &Ident = &Ident::new("id");
}

/// Build the `cicero` dialect with all op definitions and verifiers.
pub fn dialect() -> Dialect {
    let mut d = Dialect::new("cicero");
    d.register_op(OpDefinition {
        verifier: Some(verify_program),
        ..OpDefinition::simple(names::PROGRAM, 1)
    });
    for simple in [names::ACCEPT, names::ACCEPT_PARTIAL, names::MATCH_ANY] {
        d.register_op(OpDefinition::simple(simple, 0));
    }
    for branch in [names::SPLIT, names::JUMP] {
        d.register_op(OpDefinition { successors: 1, ..OpDefinition::simple(branch, 0) });
    }
    d.register_op(OpDefinition {
        name: names::ACCEPT_PARTIAL_ID,
        attrs: vec![AttrSpec::required(attrs::ID, AttrKind::Int)],
        regions: 0,
        successors: 0,
        verifier: Some(|op| {
            let id = op.attr(attrs::ID).and_then(Attribute::as_int).expect("declared");
            if (0..=i64::from(cicero_isa::MAX_OPERAND)).contains(&id) {
                Ok(())
            } else {
                Err(format!("id {id} does not fit the 13-bit operand"))
            }
        }),
    });
    for matcher in [names::MATCH_CHAR, names::NOT_MATCH_CHAR] {
        d.register_op(OpDefinition {
            attrs: vec![AttrSpec::required(attrs::TARGET_CHAR, AttrKind::Char)],
            ..OpDefinition::simple(matcher, 0)
        });
    }
    d
}

/// `cicero.program` verifier: children are instruction ops. (The generic
/// verifier checks that every branch names a block of the program.)
fn verify_program(op: &Operation) -> Result<(), String> {
    for (index, child) in op.only_region().ops.iter().enumerate() {
        if child.name().dialect() != "cicero" || child.is(names::PROGRAM) {
            return Err(format!("op {index} ({}) is not a cicero instruction", child.name()));
        }
        if !child.regions().is_empty() {
            return Err(format!("instruction op {index} must not have regions"));
        }
    }
    Ok(())
}

/// Whether the op is an acceptance (`accept`, `accept_partial`, or the
/// multi-matching `accept_partial_id`).
pub fn is_acceptance(op: &Operation) -> bool {
    op.is(names::ACCEPT) || op.is(names::ACCEPT_PARTIAL) || op.is(names::ACCEPT_PARTIAL_ID)
}

/// Whether execution can fall through from this op to the next one.
/// Acceptance ops and unconditional jumps never fall through; everything
/// else does (a failed match kills the thread, which is not a transfer).
pub fn falls_through(op: &Operation) -> bool {
    !(is_acceptance(op) || op.is(names::JUMP))
}

// ---- construction helpers -------------------------------------------------

/// Build `cicero.program` from its instruction blocks.
pub fn program(body: Region) -> Operation {
    Operation::new(names::PROGRAM).with_region(body)
}

/// Build `cicero.accept`.
pub fn accept() -> Operation {
    Operation::new(names::ACCEPT)
}

/// Build `cicero.accept_partial`.
pub fn accept_partial() -> Operation {
    Operation::new(names::ACCEPT_PARTIAL)
}

/// Build `cicero.accept_partial_id` reporting `id` on match.
pub fn accept_partial_id(id: u16) -> Operation {
    Operation::new(names::ACCEPT_PARTIAL_ID).with_attr(attrs::ID, i64::from(id))
}

/// Build `cicero.split` forking to block `successor`.
pub fn split(successor: u32) -> Operation {
    Operation::new(names::SPLIT).with_successor(successor)
}

/// Build `cicero.jump` to block `successor`.
pub fn jump(successor: u32) -> Operation {
    Operation::new(names::JUMP).with_successor(successor)
}

/// Build `cicero.match_any`.
pub fn match_any() -> Operation {
    Operation::new(names::MATCH_ANY)
}

/// Build `cicero.match_char`.
pub fn match_char(c: u8) -> Operation {
    Operation::new(names::MATCH_CHAR).with_attr(attrs::TARGET_CHAR, Attribute::Char(c))
}

/// Build `cicero.not_match_char`.
pub fn not_match_char(c: u8) -> Operation {
    Operation::new(names::NOT_MATCH_CHAR).with_attr(attrs::TARGET_CHAR, Attribute::Char(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlir_lite::Context;

    fn ctx() -> Context {
        let mut c = Context::new();
        c.register_dialect(dialect());
        c
    }

    #[test]
    fn valid_program_verifies() {
        let p = program(Region::from_blocks([
            vec![split(1), match_any(), jump(0)],
            vec![match_char(b'a'), accept_partial()],
        ]));
        ctx().verify(&p).unwrap();
    }

    #[test]
    fn a_branch_past_the_last_block_is_rejected() {
        let p = program(Region::from_blocks([vec![jump(2)], vec![accept()]]));
        let err = ctx().verify(&p).unwrap_err();
        assert!(err.message.contains("successor ^bb2 is out of range"), "{err}");
    }

    #[test]
    fn a_branch_names_exactly_one_block() {
        let p = program(Region::with_ops(vec![Operation::new(names::JUMP), accept()]));
        let err = ctx().verify(&p).unwrap_err();
        assert!(err.message.contains("expected 1 successor(s), found 0"), "{err}");
    }

    #[test]
    fn foreign_ops_rejected() {
        let p =
            program(Region::with_ops(vec![Operation::new(regex_dialect::names::MATCH_ANY_CHAR)]));
        let err = ctx().verify(&p).unwrap_err();
        assert!(err.message.contains("not a cicero instruction"), "{err}");
    }

    #[test]
    fn fall_through_classification() {
        assert!(falls_through(&match_any()));
        assert!(falls_through(&match_char(b'a')));
        assert!(falls_through(&not_match_char(b'a')));
        assert!(falls_through(&split(0)));
        assert!(!falls_through(&jump(0)));
        assert!(!falls_through(&accept()));
        assert!(!falls_through(&accept_partial()));
        assert!(is_acceptance(&accept_partial()));
        assert!(!is_acceptance(&jump(0)));
    }
}
