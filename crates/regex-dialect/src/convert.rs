//! AST → `regex` dialect conversion (the compiler's second stage, §3).

use mlir_lite::{ByteSet, Operation};
use regex_frontend::{Alternation, Atom, Concatenation, Piece, RegexAst};

use crate::ops;

/// Convert a parsed AST into `regex` dialect IR rooted at `regex.root`.
///
/// Negated classes are complemented here — the dialect's `regex.group`
/// carries the *acceptance* bitmap, matching the paper's
/// `"[ac]" becomes [false, …, true, false, true, false, …]` example. A
/// trailing `$` was already folded into the AST's `has_suffix` flag by the
/// parser, so this conversion never emits `regex.dollar` itself (the op
/// remains available to dialect users building IR by hand).
pub fn ast_to_ir(ast: &RegexAst) -> Operation {
    ops::root(ast.has_prefix, ast.has_suffix, convert_alternatives(&ast.alternation))
}

fn convert_alternatives(alt: &Alternation) -> Vec<Operation> {
    alt.alternatives.iter().map(convert_concatenation).collect()
}

fn convert_concatenation(concat: &Concatenation) -> Operation {
    ops::concatenation(concat.pieces.iter().map(convert_piece).collect())
}

fn convert_piece(piece: &Piece) -> Operation {
    let atom = convert_atom(&piece.atom);
    let quant = piece.quantifier.filter(|q| !q.is_one()).map(|q| ops::quantifier(q.min, q.max));
    ops::piece(atom, quant)
}

fn convert_atom(atom: &Atom) -> Operation {
    match atom {
        Atom::Char(c) => ops::match_char(*c),
        Atom::Any => ops::match_any_char(),
        Atom::Class { negated, set } => {
            ops::group(if *negated { ByteSet::FULL.difference(*set) } else { *set })
        }
        Atom::Group(alt) => ops::sub_regex(convert_alternatives(alt)),
    }
}

/// Convert verified `regex` dialect IR back into an AST (the inverse of
/// [`ast_to_ir`]).
///
/// Unlike rendering to pattern text with [`crate::ir_to_pattern`] and
/// re-parsing, this conversion handles IR with no textual equivalent, such
/// as an alternation whose branches are all empty (which the shortest-match
/// reduction can produce from `a*|b*`). Spans are synthesized as empty.
///
/// # Panics
///
/// Panics on IR that does not verify against the dialect.
pub fn ir_to_ast(root: &Operation) -> RegexAst {
    use crate::ops::attrs;
    use mlir_lite::Attribute;
    assert!(root.is(ops::names::ROOT), "expected regex.root, got {}", root.name());
    let flag = |key| {
        root.attr(key)
            .and_then(Attribute::as_bool)
            .unwrap_or_else(|| panic!("regex.root missing `{key}`"))
    };
    RegexAst {
        has_prefix: flag(attrs::HAS_PREFIX),
        has_suffix: flag(attrs::HAS_SUFFIX),
        alternation: region_to_alternation(&root.only_region().ops),
    }
}

fn region_to_alternation(concats: &[Operation]) -> Alternation {
    Alternation {
        alternatives: concats.iter().map(op_to_concatenation).collect(),
        span: regex_frontend::Span::default(),
    }
}

fn op_to_concatenation(concat: &Operation) -> Concatenation {
    Concatenation {
        pieces: concat.only_region().ops.iter().map(op_to_piece).collect(),
        span: regex_frontend::Span::default(),
    }
}

fn op_to_piece(piece: &Operation) -> Piece {
    use crate::ops::{attrs, names, piece_parts, quantifier_bounds};
    use mlir_lite::Attribute;
    use regex_frontend::Quantifier;
    let (atom_op, quant_op) = piece_parts(piece);
    let atom = if atom_op.is(names::MATCH_CHAR) {
        Atom::Char(atom_op.attr(attrs::TARGET_CHAR).and_then(Attribute::as_char).expect("verified"))
    } else if atom_op.is(names::MATCH_ANY_CHAR) {
        Atom::Any
    } else if atom_op.is(names::GROUP) {
        let set = atom_op.attr(attrs::TARGET_CHARS).and_then(Attribute::as_byte_set);
        Atom::Class { negated: false, set: set.expect("verified") }
    } else if atom_op.is(names::SUB_REGEX) {
        Atom::Group(Box::new(region_to_alternation(&atom_op.only_region().ops)))
    } else {
        // The parser folds `$` into `has_suffix`, so only hand-built IR
        // reaches here with `regex.dollar`, which has no AST atom.
        panic!("unexpected atom {}", atom_op.name())
    };
    let quantifier = quant_op.map(|q| {
        let (min, max) = quantifier_bounds(q);
        Quantifier::range(min, max)
    });
    Piece { atom, quantifier, span: regex_frontend::Span::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{attrs, names};
    use mlir_lite::{Attribute, Context};

    fn ir(pattern: &str) -> Operation {
        let ast = regex_frontend::parse(pattern).unwrap();
        let op = ast_to_ir(&ast);
        let mut ctx = Context::new();
        ctx.register_dialect(crate::dialect());
        ctx.verify(&op).expect("conversion must produce verified IR");
        op
    }

    #[test]
    fn listing1_structure() {
        // `(ab)|c{3,6}d+` — Listing 1 of the paper.
        let root = ir("(ab)|c{3,6}d+");
        assert_eq!(root.attr(attrs::HAS_PREFIX), Some(&Attribute::Bool(true)));
        assert_eq!(root.attr(attrs::HAS_SUFFIX), Some(&Attribute::Bool(true)));
        let alts = &root.only_region().ops;
        assert_eq!(alts.len(), 2);
        // First alternative: one piece wrapping the sub-regex (ab).
        let first = &alts[0].only_region().ops;
        assert_eq!(first.len(), 1);
        let (atom, quant) = crate::ops::piece_parts(&first[0]);
        assert!(atom.is(names::SUB_REGEX));
        assert!(quant.is_none());
        // Second alternative: c{3,6} then d+.
        let second = &alts[1].only_region().ops;
        assert_eq!(second.len(), 2);
        let (atom, quant) = crate::ops::piece_parts(&second[0]);
        assert!(atom.is(names::MATCH_CHAR));
        assert_eq!(crate::ops::quantifier_bounds(quant.unwrap()), (3, Some(6)));
        let (_, quant) = crate::ops::piece_parts(&second[1]);
        assert_eq!(crate::ops::quantifier_bounds(quant.unwrap()), (1, None));
    }

    #[test]
    fn anchors_map_to_root_flags() {
        let root = ir("^ab$");
        assert_eq!(root.attr(attrs::HAS_PREFIX), Some(&Attribute::Bool(false)));
        assert_eq!(root.attr(attrs::HAS_SUFFIX), Some(&Attribute::Bool(false)));
    }

    #[test]
    fn negated_class_is_complemented() {
        let root = ir("[^ab]");
        let alts = &root.only_region().ops;
        let (atom, _) = crate::ops::piece_parts(&alts[0].only_region().ops[0]);
        let set = atom.attr(attrs::TARGET_CHARS).and_then(Attribute::as_byte_set).unwrap();
        assert!(!set.contains(b'a'));
        assert!(!set.contains(b'b'));
        assert!(set.contains(b'c'));
        assert_eq!(set.len(), 254);
    }

    #[test]
    fn trivial_quantifier_is_dropped() {
        let root = ir("a{1}");
        let (_, quant) = crate::ops::piece_parts(&root.only_region().ops[0].only_region().ops[0]);
        assert!(quant.is_none(), "{{1}} is the same as no quantifier");
    }

    #[test]
    fn nested_groups_convert_recursively() {
        let root = ir("a(b(c|d))e");
        let pieces = &root.only_region().ops[0].only_region().ops;
        assert_eq!(pieces.len(), 3);
        let (sub, _) = crate::ops::piece_parts(&pieces[1]);
        assert!(sub.is(names::SUB_REGEX));
        let inner_pieces = &sub.only_region().ops[0].only_region().ops;
        assert_eq!(inner_pieces.len(), 2);
        let (inner_sub, _) = crate::ops::piece_parts(&inner_pieces[1]);
        assert!(inner_sub.is(names::SUB_REGEX));
        assert_eq!(inner_sub.only_region().len(), 2, "c|d has two alternatives");
    }
}
