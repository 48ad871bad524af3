//! Operation definitions and verifiers for the `regex` dialect.

use mlir_lite::{AttrKind, AttrSpec, Attribute, ByteSet, Dialect, OpDefinition, Operation};

/// Fully-qualified operation names.
pub mod names {
    use mlir_lite::Ident;

    /// Top-level operation: the whole RE pattern.
    pub static ROOT: &Ident = &Ident::new("regex.root");
    /// One alternative of an alternation (siblings are `|`-separated).
    pub static CONCATENATION: &Ident = &Ident::new("regex.concatenation");
    /// Atom + optional quantifier wrapper.
    pub static PIECE: &Ident = &Ident::new("regex.piece");
    /// Repetition bounds for the piece's atom.
    pub static QUANTIFIER: &Ident = &Ident::new("regex.quantifier");
    /// Match one specific character.
    pub static MATCH_CHAR: &Ident = &Ident::new("regex.match_char");
    /// Match any character.
    pub static MATCH_ANY_CHAR: &Ident = &Ident::new("regex.match_any_char");
    /// Match any character of a byte set.
    pub static GROUP: &Ident = &Ident::new("regex.group");
    /// A parenthesized sub-expression.
    pub static SUB_REGEX: &Ident = &Ident::new("regex.sub_regex");
    /// Match the end of the input.
    pub static DOLLAR: &Ident = &Ident::new("regex.dollar");
}

/// Attribute keys used by the dialect.
pub mod attrs {
    use mlir_lite::Ident;

    /// `regex.root`: implicit `.*` before the pattern.
    pub static HAS_PREFIX: &Ident = &Ident::new("has_prefix");
    /// `regex.root`: implicit `.*` after the pattern.
    pub static HAS_SUFFIX: &Ident = &Ident::new("has_suffix");
    /// `regex.quantifier`: minimum repetitions (≥ 0).
    pub static MIN: &Ident = &Ident::new("min");
    /// `regex.quantifier`: maximum repetitions, or −1 for unbounded.
    pub static MAX: &Ident = &Ident::new("max");
    /// `regex.match_char`: the character to match.
    pub static TARGET_CHAR: &Ident = &Ident::new("target_char");
    /// `regex.group`: the accepted bytes.
    pub static TARGET_CHARS: &Ident = &Ident::new("target_chars");
}

/// Whether `op` is an atom operation (valid as the first op of a piece).
pub fn is_atom(op: &Operation) -> bool {
    use names::{DOLLAR, GROUP, MATCH_ANY_CHAR, MATCH_CHAR, SUB_REGEX};
    [MATCH_CHAR, MATCH_ANY_CHAR, GROUP, SUB_REGEX, DOLLAR].into_iter().any(|name| op.is(name))
}

/// Build the `regex` dialect with all op definitions and verifiers.
pub fn dialect() -> Dialect {
    let mut d = Dialect::new("regex");
    d.register_op(OpDefinition {
        name: names::ROOT,
        attrs: vec![
            AttrSpec::required(attrs::HAS_PREFIX, AttrKind::Bool),
            AttrSpec::required(attrs::HAS_SUFFIX, AttrKind::Bool),
        ],
        regions: 1,
        verifier: Some(verify_alternation_container),
    });
    d.register_op(OpDefinition {
        name: names::CONCATENATION,
        attrs: vec![],
        regions: 1,
        verifier: Some(verify_concatenation),
    });
    d.register_op(OpDefinition {
        name: names::PIECE,
        attrs: vec![],
        regions: 1,
        verifier: Some(verify_piece),
    });
    d.register_op(OpDefinition {
        name: names::QUANTIFIER,
        attrs: vec![
            AttrSpec::required(attrs::MIN, AttrKind::Int),
            AttrSpec::required(attrs::MAX, AttrKind::Int),
        ],
        regions: 0,
        verifier: Some(verify_quantifier),
    });
    d.register_op(OpDefinition {
        name: names::MATCH_CHAR,
        attrs: vec![AttrSpec::required(attrs::TARGET_CHAR, AttrKind::Char)],
        regions: 0,
        verifier: None,
    });
    d.register_op(OpDefinition::simple(names::MATCH_ANY_CHAR, 0));
    d.register_op(OpDefinition {
        name: names::GROUP,
        attrs: vec![AttrSpec::required(attrs::TARGET_CHARS, AttrKind::ByteSet)],
        regions: 0,
        verifier: Some(verify_group),
    });
    d.register_op(OpDefinition {
        name: names::SUB_REGEX,
        attrs: vec![],
        regions: 1,
        verifier: Some(verify_alternation_container),
    });
    d.register_op(OpDefinition::simple(names::DOLLAR, 0));
    d
}

/// `regex.root` / `regex.sub_regex`: region children are concatenations.
fn verify_alternation_container(op: &Operation) -> Result<(), String> {
    for child in &op.only_region().ops {
        if !child.is(names::CONCATENATION) {
            return Err(format!(
                "children must be {}, found {}",
                names::CONCATENATION,
                child.name()
            ));
        }
    }
    if op.only_region().is_empty() {
        return Err("must contain at least one alternative".to_owned());
    }
    Ok(())
}

/// `regex.concatenation`: region children are pieces.
fn verify_concatenation(op: &Operation) -> Result<(), String> {
    for child in &op.only_region().ops {
        if !child.is(names::PIECE) {
            return Err(format!("children must be {}, found {}", names::PIECE, child.name()));
        }
    }
    Ok(())
}

/// `regex.piece`: exactly one atom, optionally followed by one quantifier.
fn verify_piece(op: &Operation) -> Result<(), String> {
    let ops = &op.only_region().ops;
    match ops.as_slice() {
        [atom] if is_atom(atom) => Ok(()),
        [atom, quant] if is_atom(atom) && quant.is(names::QUANTIFIER) => {
            if atom.is(names::DOLLAR) {
                Err("`regex.dollar` cannot be quantified".to_owned())
            } else {
                Ok(())
            }
        }
        [] => Err("piece is empty; expected an atom".to_owned()),
        [first, ..] if !is_atom(first) => {
            Err(format!("first op of a piece must be an atom, found {}", first.name()))
        }
        _ => Err("piece must be exactly [atom] or [atom, quantifier]".to_owned()),
    }
}

/// `regex.quantifier`: bounds sanity.
fn verify_quantifier(op: &Operation) -> Result<(), String> {
    let min = op.attr(attrs::MIN).and_then(Attribute::as_int).expect("declared attr");
    let max = op.attr(attrs::MAX).and_then(Attribute::as_int).expect("declared attr");
    if min < 0 {
        return Err(format!("min must be >= 0, got {min}"));
    }
    if max != -1 && max < min {
        return Err(format!("max ({max}) must be -1 or >= min ({min})"));
    }
    if max == 0 {
        return Err("max of 0 matches nothing".to_owned());
    }
    Ok(())
}

/// `regex.group`: the class accepts at least one byte.
fn verify_group(op: &Operation) -> Result<(), String> {
    match op.attr(attrs::TARGET_CHARS).and_then(Attribute::as_byte_set) {
        Some(set) if set.is_empty() => Err("group accepts no character".to_owned()),
        _ => Ok(()),
    }
}

// ---- construction helpers -------------------------------------------------

use mlir_lite::Region;

/// Build `regex.match_char`.
pub fn match_char(c: u8) -> Operation {
    Operation::new(names::MATCH_CHAR).with_attr(attrs::TARGET_CHAR, Attribute::Char(c))
}

/// Build `regex.match_any_char`.
pub fn match_any_char() -> Operation {
    Operation::new(names::MATCH_ANY_CHAR)
}

/// Build `regex.group` accepting the bytes of `set`.
pub fn group(set: ByteSet) -> Operation {
    Operation::new(names::GROUP).with_attr(attrs::TARGET_CHARS, set)
}

/// Build `regex.quantifier`; `max = None` means unbounded.
pub fn quantifier(min: u32, max: Option<u32>) -> Operation {
    Operation::new(names::QUANTIFIER)
        .with_attr(attrs::MIN, i64::from(min))
        .with_attr(attrs::MAX, max.map_or(-1i64, i64::from))
}

/// Build `regex.piece` from an atom and an optional quantifier.
pub fn piece(atom: Operation, quant: Option<Operation>) -> Operation {
    let mut ops = Vec::with_capacity(1 + usize::from(quant.is_some()));
    ops.push(atom);
    ops.extend(quant);
    Operation::new(names::PIECE).with_region(Region::with_ops(ops))
}

/// Build `regex.concatenation` from pieces.
pub fn concatenation(pieces: Vec<Operation>) -> Operation {
    Operation::new(names::CONCATENATION).with_region(Region::with_ops(pieces))
}

/// Build `regex.sub_regex` from alternatives (concatenations).
pub fn sub_regex(alternatives: Vec<Operation>) -> Operation {
    Operation::new(names::SUB_REGEX).with_region(Region::with_ops(alternatives))
}

/// Build `regex.root` from alternatives (concatenations).
pub fn root(has_prefix: bool, has_suffix: bool, alternatives: Vec<Operation>) -> Operation {
    Operation::new(names::ROOT)
        .with_attr(attrs::HAS_PREFIX, has_prefix)
        .with_attr(attrs::HAS_SUFFIX, has_suffix)
        .with_region(Region::with_ops(alternatives))
}

/// Read a quantifier op's `(min, max)` bounds; `max = None` is unbounded.
///
/// # Panics
///
/// Panics if `op` is not a verified `regex.quantifier`.
pub fn quantifier_bounds(op: &Operation) -> (u32, Option<u32>) {
    assert!(op.is(names::QUANTIFIER), "expected quantifier, got {}", op.name());
    let min = op.attr(attrs::MIN).and_then(Attribute::as_int).expect("verified");
    let max = op.attr(attrs::MAX).and_then(Attribute::as_int).expect("verified");
    (min as u32, if max == -1 { None } else { Some(max as u32) })
}

/// Split a verified piece region into `(atom, Option<quantifier>)`.
///
/// # Panics
///
/// Panics if `op` is not a verified `regex.piece`.
pub fn piece_parts(op: &Operation) -> (&Operation, Option<&Operation>) {
    assert!(op.is(names::PIECE), "expected piece, got {}", op.name());
    let ops = &op.only_region().ops;
    match ops.as_slice() {
        [atom] => (atom, None),
        [atom, quant] => (atom, Some(quant)),
        other => panic!("malformed piece with {} ops", other.len()),
    }
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

    fn simple_root() -> Operation {
        root(
            true,
            true,
            vec![concatenation(vec![
                piece(match_char(b'a'), None),
                piece(match_char(b'b'), Some(quantifier(1, None))),
            ])],
        )
    }

    #[test]
    fn well_formed_ir_verifies() {
        ctx().verify(&simple_root()).unwrap();
    }

    #[test]
    fn root_requires_concatenation_children() {
        let bad = root(true, true, vec![piece(match_char(b'a'), None)]);
        let err = ctx().verify(&bad).unwrap_err();
        assert!(err.message.contains("must be regex.concatenation"), "{err}");
    }

    #[test]
    fn root_requires_an_alternative() {
        let bad = root(true, true, vec![]);
        let err = ctx().verify(&bad).unwrap_err();
        assert!(err.message.contains("at least one alternative"), "{err}");
    }

    #[test]
    fn piece_structure_is_enforced() {
        let bad =
            Operation::new(names::PIECE).with_region(Region::with_ops(vec![quantifier(1, None)]));
        let err = ctx().verify(&bad).unwrap_err();
        assert!(err.message.contains("must be an atom"), "{err}");

        let bad = Operation::new(names::PIECE)
            .with_region(Region::with_ops(vec![match_char(b'a'), match_char(b'b')]));
        let err = ctx().verify(&bad).unwrap_err();
        assert!(err.message.contains("[atom, quantifier]"), "{err}");
    }

    #[test]
    fn dollar_cannot_be_quantified() {
        let bad = root(
            true,
            false,
            vec![concatenation(vec![piece(
                Operation::new(names::DOLLAR),
                Some(quantifier(0, Some(1))),
            )])],
        );
        let err = ctx().verify(&bad).unwrap_err();
        assert!(err.message.contains("cannot be quantified"), "{err}");
    }

    #[test]
    fn quantifier_bounds_validated() {
        for (min, max, needle) in
            [(-1i64, 1i64, "min must be"), (3, 2, "must be -1 or >="), (0, 0, "matches nothing")]
        {
            let q = Operation::new(names::QUANTIFIER)
                .with_attr(attrs::MIN, min)
                .with_attr(attrs::MAX, max);
            let bad = root(true, true, vec![concatenation(vec![piece(match_char(b'a'), Some(q))])]);
            let err = ctx().verify(&bad).unwrap_err();
            assert!(err.message.contains(needle), "{err}");
        }
    }

    #[test]
    fn empty_group_rejected() {
        let bad = root(true, true, vec![concatenation(vec![piece(group(ByteSet::EMPTY), None)])]);
        let err = ctx().verify(&bad).unwrap_err();
        assert!(err.message.contains("no character"), "{err}");
    }

    #[test]
    fn accessors() {
        let q = quantifier(3, Some(6));
        assert_eq!(quantifier_bounds(&q), (3, Some(6)));
        let q = quantifier(1, None);
        assert_eq!(quantifier_bounds(&q), (1, None));

        let p = piece(match_char(b'x'), Some(quantifier(2, Some(2))));
        let (atom, quant) = piece_parts(&p);
        assert!(atom.is(names::MATCH_CHAR));
        assert!(quant.is_some());
    }
}
