//! Textual IR printer.
//!
//! The format is a compact cousin of MLIR's generic operation form:
//!
//! ```text
//! op          ::= op-name attr-dict? region-list?
//! attr-dict   ::= '{' (ident '=' attr-value),* '}'
//! region-list ::= '(' region (',' region)* ')'
//! region      ::= '{' op* '}'
//! ```
//!
//! Because region lists are always parenthesized, a `{` directly after the
//! op name is unambiguously the attribute dictionary. The output of
//! [`print_op`] is accepted by [`crate::parser::parse`], and round-tripping
//! is covered by property tests.

use std::fmt::Write as _;

use crate::op::Operation;

/// Width of one indentation step, in spaces.
const INDENT: usize = 2;

/// Print an operation subtree to its textual form.
pub fn print_op(op: &Operation) -> String {
    let mut out = String::new();
    print_rec(op, 0, &mut out);
    out
}

fn print_rec(op: &Operation, depth: usize, out: &mut String) {
    let pad = " ".repeat(depth * INDENT);
    let _ = write!(out, "{pad}{}", op.name());
    let attrs: Vec<String> = op.attrs().map(|(k, v)| format!("{k} = {v}")).collect();
    if !attrs.is_empty() {
        let _ = write!(out, " {{{}}}", attrs.join(", "));
    }
    if !op.regions().is_empty() {
        let _ = writeln!(out, " (");
        for (i, region) in op.regions().iter().enumerate() {
            let rpad = " ".repeat((depth + 1) * INDENT);
            let _ = writeln!(out, "{rpad}{{");
            for child in &region.ops {
                print_rec(child, depth + 2, out);
            }
            let sep = if i + 1 < op.regions().len() { "," } else { "" };
            let _ = writeln!(out, "{rpad}}}{sep}");
        }
        let _ = writeln!(out, "{pad})");
    } else {
        let _ = writeln!(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::op::Region;

    #[test]
    fn leaf_with_attrs() {
        let mut op = Operation::new("regex.quantifier");
        op.set_attr("min", 3i64);
        op.set_attr("max", 6i64);
        assert_eq!(print_op(&op).trim(), "regex.quantifier {max = 6, min = 3}");
    }

    #[test]
    fn bare_leaf() {
        assert_eq!(
            print_op(&Operation::new("regex.match_any_char")).trim(),
            "regex.match_any_char"
        );
    }

    #[test]
    fn nested_regions_indent() {
        let leaf =
            Operation::new("regex.match_char").with_attr("target_char", Attribute::Char(b'a'));
        let root = Operation::new("regex.root")
            .with_attr("has_prefix", true)
            .with_region(Region::with_ops(vec![leaf.clone()]))
            .with_region(Region::with_ops(vec![leaf]));
        let text = print_op(&root);
        let expected = "\
regex.root {has_prefix = true} (
  {
    regex.match_char {target_char = 'a'}
  },
  {
    regex.match_char {target_char = 'a'}
  }
)
";
        assert_eq!(text, expected);
    }

    #[test]
    fn empty_region_prints_braces() {
        let op = Operation::new("t.wrap").with_region(Region::new());
        let text = print_op(&op);
        assert!(text.contains("{\n  }"), "{text}");
    }
}
