//! Operation definitions and verifiers for the `cicero` dialect.

use std::sync::Arc;

use mlir_lite::{AttrKind, AttrSpec, Attribute, Dialect, OpDefinition, Operation};

/// Fully-qualified operation names.
pub mod names {
    use mlir_lite::Ident;

    /// The container: a flat instruction list in one region.
    pub static PROGRAM: &Ident = &Ident::new("cicero.program");
    /// Accept iff at end of input.
    pub static ACCEPT: &Ident = &Ident::new("cicero.accept");
    /// Accept at any point of the input.
    pub static ACCEPT_PARTIAL: &Ident = &Ident::new("cicero.accept_partial");
    /// Accept anywhere and report the matched RE's identifier (the
    /// Future-Work multi-matching extension).
    pub static ACCEPT_PARTIAL_ID: &Ident = &Ident::new("cicero.accept_partial_id");
    /// Fork: fall through and jump to `target`.
    pub static SPLIT: &Ident = &Ident::new("cicero.split");
    /// Unconditional jump to `target`.
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

    /// Optional label defining a symbol at this op.
    pub static SYM_NAME: &Ident = &Ident::new("sym_name");
    /// `cicero.split`/`cicero.jump`: the referenced symbol.
    pub static TARGET: &Ident = &Ident::new("target");
    /// `cicero.match_char`/`cicero.not_match_char`: the character (the
    /// `regex` dialect's key: a name is declared once).
    pub use regex_dialect::ops::attrs::TARGET_CHAR;
    /// `cicero.accept_partial_id`: the reported RE identifier.
    pub static ID: &Ident = &Ident::new("id");
}

/// Build the `cicero` dialect with all op definitions and verifiers.
pub fn dialect() -> Dialect {
    let sym = || AttrSpec::optional(attrs::SYM_NAME, AttrKind::Str);
    let mut d = Dialect::new("cicero");
    d.register_op(OpDefinition {
        name: names::PROGRAM,
        attrs: vec![],
        regions: 1,
        verifier: Some(verify_program),
    });
    for simple in [names::ACCEPT, names::ACCEPT_PARTIAL, names::MATCH_ANY] {
        d.register_op(OpDefinition {
            name: simple,
            attrs: vec![sym()],
            regions: 0,
            verifier: None,
        });
    }
    for branch in [names::SPLIT, names::JUMP] {
        d.register_op(OpDefinition {
            name: branch,
            attrs: vec![sym(), AttrSpec::required(attrs::TARGET, AttrKind::Symbol)],
            regions: 0,
            verifier: None,
        });
    }
    d.register_op(OpDefinition {
        name: names::ACCEPT_PARTIAL_ID,
        attrs: vec![sym(), AttrSpec::required(attrs::ID, AttrKind::Int)],
        regions: 0,
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
            name: matcher,
            attrs: vec![sym(), AttrSpec::required(attrs::TARGET_CHAR, AttrKind::Char)],
            regions: 0,
            verifier: None,
        });
    }
    d
}

/// `cicero.program` verifier: children are instruction ops, symbols are
/// unique, and every `target` reference resolves.
fn verify_program(op: &Operation) -> Result<(), String> {
    let body = &op.only_region().ops;
    for (index, child) in body.iter().enumerate() {
        if child.name().dialect() != "cicero" || child.is(names::PROGRAM) {
            return Err(format!("op {index} ({}) is not a cicero instruction", child.name()));
        }
        if !child.regions().is_empty() {
            return Err(format!("instruction op {index} must not have regions"));
        }
    }
    let mut symbols: Vec<&str> = body.iter().filter_map(sym_name).collect();
    symbols.sort_unstable();
    if let Some(pair) = symbols.windows(2).find(|pair| pair[0] == pair[1]) {
        return Err(format!("symbol `{}` defined more than once", pair[0]));
    }
    match resolve_targets(body) {
        Ok(_) => Ok(()),
        Err((index, target)) => Err(format!("op {index} references undefined symbol `{target}`")),
    }
}

/// Resolve every branch of a program body to the index of the op whose
/// `sym_name` it names, once: per op, its target's index, `None` for an
/// op that does not branch. Jump Simplification and code generation then
/// work on indices, not symbols. The labels are sorted once and each
/// branch is a binary search among them. A symbol defined twice resolves
/// to its last definition (the verifier refuses it).
///
/// # Errors
///
/// The index and symbol of the first branch to a symbol no op defines.
pub fn resolve_targets(body: &[Operation]) -> Result<Vec<Option<usize>>, (usize, &str)> {
    let mut defined: Vec<(&str, usize)> =
        body.iter().enumerate().filter_map(|(i, op)| Some((sym_name(op)?, i))).collect();
    defined.sort_unstable();
    let resolve = |(index, op)| {
        let Some(symbol) = branch_target(op) else { return Ok(None) };
        let at = defined.partition_point(|&(sym, _)| sym <= symbol);
        match at.checked_sub(1).map(|at| defined[at]) {
            Some((sym, target)) if sym == symbol => Ok(Some(target)),
            _ => Err((index, symbol)),
        }
    };
    body.iter().enumerate().map(resolve).collect()
}

/// The shared text of an op's `sym_name`, for a branch to reference.
pub fn label(op: &Operation) -> Option<Arc<str>> {
    match op.attr(attrs::SYM_NAME)? {
        Attribute::Str(label) => Some(label.clone()),
        _ => None,
    }
}

/// The `sym_name` of an op, if labeled.
pub fn sym_name(op: &Operation) -> Option<&str> {
    op.attr(attrs::SYM_NAME).and_then(Attribute::as_str)
}

/// The `target` symbol of a `split`/`jump`, if applicable.
pub fn branch_target(op: &Operation) -> Option<&str> {
    op.attr(attrs::TARGET).and_then(Attribute::as_symbol)
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

use mlir_lite::Region;

/// Build `cicero.program` from a flat instruction list.
pub fn program(body: Vec<Operation>) -> Operation {
    Operation::new(names::PROGRAM).with_region(Region::with_ops(body))
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

/// Build `cicero.split` targeting `symbol`.
pub fn split(symbol: impl Into<Arc<str>>) -> Operation {
    Operation::new(names::SPLIT).with_attr(attrs::TARGET, Attribute::Symbol(symbol.into()))
}

/// Build `cicero.jump` targeting `symbol`.
pub fn jump(symbol: impl Into<Arc<str>>) -> Operation {
    Operation::new(names::JUMP).with_attr(attrs::TARGET, Attribute::Symbol(symbol.into()))
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

    fn labeled(mut op: Operation, sym: &str) -> Operation {
        op.set_attr(attrs::SYM_NAME, sym);
        op
    }

    #[test]
    fn valid_program_verifies() {
        let p = program(vec![
            labeled(split("body"), "loop"),
            match_any(),
            jump("loop"),
            labeled(match_char(b'a'), "body"),
            accept_partial(),
        ]);
        ctx().verify(&p).unwrap();
    }

    #[test]
    fn undefined_symbol_rejected() {
        let p = program(vec![jump("nowhere"), accept()]);
        let err = ctx().verify(&p).unwrap_err();
        assert!(err.message.contains("undefined symbol `nowhere`"), "{err}");
    }

    #[test]
    fn duplicate_symbol_rejected() {
        let p = program(vec![labeled(match_any(), "x"), labeled(accept(), "x")]);
        let err = ctx().verify(&p).unwrap_err();
        assert!(err.message.contains("defined more than once"), "{err}");
    }

    #[test]
    fn foreign_ops_rejected() {
        let p = program(vec![Operation::new(regex_dialect::names::MATCH_ANY_CHAR)]);
        let err = ctx().verify(&p).unwrap_err();
        assert!(err.message.contains("not a cicero instruction"), "{err}");
    }

    #[test]
    fn fall_through_classification() {
        assert!(falls_through(&match_any()));
        assert!(falls_through(&match_char(b'a')));
        assert!(falls_through(&not_match_char(b'a')));
        assert!(falls_through(&split("x")));
        assert!(!falls_through(&jump("x")));
        assert!(!falls_through(&accept()));
        assert!(!falls_through(&accept_partial()));
    }

    #[test]
    fn accessors() {
        assert_eq!(branch_target(&jump("next")), Some("next"));
        assert_eq!(branch_target(&match_any()), None);
        assert_eq!(sym_name(&labeled(accept(), "end")), Some("end"));
        assert!(is_acceptance(&accept_partial()));
        assert!(!is_acceptance(&jump("x")));
    }
}
