//! Textual IR printer.
//!
//! The format is a compact cousin of MLIR's generic operation form:
//!
//! ```text
//! op          ::= op-name block-ref? attr-dict? region-list?
//! block-ref   ::= '^bb' integer
//! attr-dict   ::= '{' (ident '=' attr-value),* '}'
//! region-list ::= '(' region (',' region)* ')'
//! region      ::= '{' op* '}' | '{' block+ '}'
//! block       ::= block-ref ':' op*
//! ```
//!
//! Because region lists are always parenthesized, a `{` directly after the
//! op name or its successor is unambiguously the attribute dictionary. A
//! region of one block prints its ops alone; a region of several prints a
//! `^bbN:` header before each block, numbered in layout order, and a
//! successor names a block by that number. The output of
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
    for block in op.successors() {
        let _ = write!(out, " ^bb{block}");
    }
    let attrs: Vec<String> = op.attrs().map(|(k, v)| format!("{k} = {v}")).collect();
    if !attrs.is_empty() {
        let _ = write!(out, " {{{}}}", attrs.join(", "));
    }
    if !op.regions().is_empty() {
        let _ = writeln!(out, " (");
        for (i, region) in op.regions().iter().enumerate() {
            let rpad = " ".repeat((depth + 1) * INDENT);
            let _ = writeln!(out, "{rpad}{{");
            for (block, ops) in region.blocks().enumerate() {
                if region.block_count() > 1 {
                    let _ = writeln!(out, "{rpad}^bb{block}:");
                }
                for child in ops {
                    print_rec(child, depth + 2, out);
                }
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
    fn blocks_print_headers_and_successors_name_them() {
        let region = Region::from_blocks([vec![Operation::new("t.br").with_successor(1)], vec![]]);
        let text = print_op(&Operation::new("t.wrap").with_region(region));
        let expected = "t.wrap (\n  {\n  ^bb0:\n    t.br ^bb1\n  ^bb1:\n  }\n)\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn empty_region_prints_braces() {
        let op = Operation::new("t.wrap").with_region(Region::new());
        let text = print_op(&op);
        assert!(text.contains("{\n  }"), "{text}");
    }
}
