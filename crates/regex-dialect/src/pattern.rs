//! `regex` dialect IR → pattern text (the inverse of [`crate::ast_to_ir`]).
//!
//! Used by tests to state transformation results in plain regex syntax
//! (e.g. asserting that factorization turns `this|that|those` into
//! `th(is|at|ose)`) and by tooling to show users the effect of each pass.

use mlir_lite::{Attribute, ByteSet, Operation};

use crate::ops::{attrs, names, piece_parts, quantifier_bounds};

/// Render a `regex.root` tree back to pattern syntax.
///
/// Character classes print as the smaller of the positive form `[…]` and
/// the negated form `[^…]`; a full bitmap prints as `.`.
///
/// # Panics
///
/// Panics on IR that does not verify against the dialect — run
/// [`mlir_lite::Context::verify`] first when handling untrusted IR.
pub fn ir_to_pattern(root: &Operation) -> String {
    assert!(root.is(names::ROOT), "expected regex.root, got {}", root.name());
    let mut out = String::new();
    if root.attr(attrs::HAS_PREFIX).and_then(Attribute::as_bool) == Some(false) {
        out.push('^');
    }
    write_alternatives(&root.only_region().ops, &mut out);
    if root.attr(attrs::HAS_SUFFIX).and_then(Attribute::as_bool) == Some(false) {
        out.push('$');
    }
    out
}

fn write_alternatives(alternatives: &[Operation], out: &mut String) {
    for (i, concat) in alternatives.iter().enumerate() {
        if i > 0 {
            out.push('|');
        }
        for piece in &concat.only_region().ops {
            write_piece(piece, out);
        }
    }
}

fn write_piece(piece: &Operation, out: &mut String) {
    let (atom, quant) = piece_parts(piece);
    if atom.is(names::MATCH_CHAR) {
        write_escaped(
            atom.attr(attrs::TARGET_CHAR).and_then(Attribute::as_char).expect("verified"),
            out,
        );
    } else if atom.is(names::MATCH_ANY_CHAR) {
        out.push('.');
    } else if atom.is(names::DOLLAR) {
        out.push('$');
    } else if atom.is(names::GROUP) {
        write_class(
            atom.attr(attrs::TARGET_CHARS).and_then(Attribute::as_byte_set).expect("verified"),
            out,
        );
    } else if atom.is(names::SUB_REGEX) {
        out.push('(');
        write_alternatives(&atom.only_region().ops, out);
        out.push(')');
    } else {
        panic!("unexpected atom {}", atom.name());
    }
    if let Some(quant) = quant {
        let (min, max) = quantifier_bounds(quant);
        match (min, max) {
            (0, None) => out.push('*'),
            (1, None) => out.push('+'),
            (0, Some(1)) => out.push('?'),
            (m, None) => out.push_str(&format!("{{{m},}}")),
            (m, Some(n)) if m == n => out.push_str(&format!("{{{m}}}")),
            (m, Some(n)) => out.push_str(&format!("{{{m},{n}}}")),
        }
    }
}

fn write_class(set: ByteSet, out: &mut String) {
    let count = set.len();
    if count == 256 {
        out.push('.');
        return;
    }
    if count == 1 {
        write_escaped(set.iter().next().expect("count == 1"), out);
        return;
    }
    let negate = count > 128;
    out.push('[');
    if negate {
        out.push('^');
    }
    for c in 0..=255u8 {
        if set.contains(c) != negate {
            match c {
                b']' | b'\\' | b'^' | b'-' => {
                    out.push('\\');
                    out.push(c as char);
                }
                c if c.is_ascii_graphic() || c == b' ' => out.push(c as char),
                c => out.push_str(&format!("\\x{c:02x}")),
            }
        }
    }
    out.push(']');
}

fn write_escaped(c: u8, out: &mut String) {
    if b".*+?()[]{}|^$\\".contains(&c) {
        out.push('\\');
        out.push(c as char);
    } else if c.is_ascii_graphic() || c == b' ' {
        out.push(c as char);
    } else {
        out.push_str(&format!("\\x{c:02x}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast_to_ir;

    fn roundtrip(pattern: &str) -> String {
        ir_to_pattern(&ast_to_ir(&regex_frontend::parse(pattern).unwrap()))
    }

    #[test]
    fn simple_patterns_roundtrip() {
        for p in ["abc", "a|b", "(ab)|c{3,6}d+", "^x$", "a.c*", "(a(b|c)){2,}"] {
            assert_eq!(roundtrip(p), p);
        }
    }

    #[test]
    fn class_prints_positive_or_negated_by_size() {
        assert_eq!(roundtrip("[ab]"), "[ab]");
        assert_eq!(roundtrip("[^ab]"), "[^ab]");
        // Ranges are expanded to their members.
        assert_eq!(roundtrip("[a-c]"), "[abc]");
    }

    #[test]
    fn escapes_survive() {
        assert_eq!(roundtrip(r"\.\*"), r"\.\*");
        assert_eq!(roundtrip(r"a\x00b"), r"a\x00b");
    }

    #[test]
    fn printed_form_reparses_equivalently() {
        for p in ["(ab)|c{3,6}d+", "[^a-f]{2}x+", "th(is|at|ose)", "^a(b|)c$"] {
            let once = roundtrip(p);
            let twice = roundtrip(&once);
            assert_eq!(once, twice, "printing must be idempotent for {p}");
        }
    }
}
