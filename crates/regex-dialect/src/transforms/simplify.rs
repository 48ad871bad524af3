//! Transformation set 1 (§3.2): sub-regex simplification.
//!
//! "We simplify sub-expressions into a more concise representation,
//! applying canonicalization whenever possible to remove the unnecessary
//! parenthesis." The paper's worked examples, all reproduced in the tests:
//!
//! * `(abc) → abc`, while `(abc)+` is preserved (operator precedence);
//! * `(a+)` and `(a)+` both become `a+`;
//! * `(a{2,3}){4,7}` is preserved (`a{8,21}` would wrongly accept 9 `a`s).

use mlir_lite::{
    apply_patterns_greedily, Context, Operation, Pass, PassError, Rewrite, RewritePattern,
};

use crate::ops::{self, names, piece_parts};

/// The canonicalization pass: runs all simplification patterns to a fixed
/// point (the dialect's `canonicalize`, per the paper's footnote pointing
/// at MLIR canonicalization).
#[derive(Debug, Clone, Copy, Default)]
pub struct CanonicalizePass;

impl Pass for CanonicalizePass {
    fn name(&self) -> &'static str {
        "regex-canonicalize"
    }

    fn run(&self, root: &mut Operation, _ctx: &Context) -> Result<(), PassError> {
        let patterns: [&dyn RewritePattern; 3] =
            [&UnwrapTrivialSubRegex, &MergeSubRegexQuantifier, &SimplifyGroup];
        let stats = apply_patterns_greedily(root, &patterns);
        if stats.hit_rewrite_cap {
            return Err(PassError::new("canonicalization did not converge"));
        }
        Ok(())
    }
}

/// `(X) → X` when the sub-regex has a single alternative and the wrapping
/// piece carries no quantifier: the parentheses are pure grouping, so the
/// inner pieces can be spliced into the outer concatenation.
struct UnwrapTrivialSubRegex;

impl RewritePattern for UnwrapTrivialSubRegex {
    fn name(&self) -> &'static str {
        "unwrap-trivial-sub-regex"
    }

    fn matches(&self, op: &Operation) -> bool {
        op.is(names::PIECE) && {
            let (atom, quant) = piece_parts(op);
            quant.is_none() && atom.is(names::SUB_REGEX) && atom.only_region().len() == 1
        }
    }

    fn apply(&self, mut op: Operation) -> Rewrite {
        let mut sub = op.only_region_mut().ops.remove(0);
        let mut concat = sub.only_region_mut().ops.remove(0);
        Rewrite::Replace(std::mem::take(&mut concat.only_region_mut().ops))
    }
}

/// `(a)+ → a+`: a quantified sub-regex whose body is a single *unquantified*
/// atom transfers the outer quantifier onto the atom directly. When the
/// inner atom is itself quantified (`(a{2,3}){4,7}`) the piece is left
/// alone — bound multiplication is not language-preserving.
struct MergeSubRegexQuantifier;

impl RewritePattern for MergeSubRegexQuantifier {
    fn name(&self) -> &'static str {
        "merge-sub-regex-quantifier"
    }

    fn matches(&self, op: &Operation) -> bool {
        op.is(names::PIECE) && {
            let (atom, quant) = piece_parts(op);
            quant.is_some() && atom.is(names::SUB_REGEX) && atom.only_region().len() == 1 && {
                let concat = &atom.only_region().ops[0];
                concat.only_region().len() == 1 && {
                    let (_, inner_quant) = piece_parts(&concat.only_region().ops[0]);
                    inner_quant.is_none()
                }
            }
        }
    }

    fn apply(&self, mut op: Operation) -> Rewrite {
        let pieces = &mut op.only_region_mut().ops;
        let outer_quant = pieces.pop().expect("quantifier present");
        let mut sub = pieces.pop().expect("sub-regex present");
        let mut concat = sub.only_region_mut().ops.remove(0);
        let mut inner_piece = concat.only_region_mut().ops.remove(0);
        let inner_atom = inner_piece.only_region_mut().ops.remove(0);
        Rewrite::Replace(vec![ops::piece(inner_atom, Some(outer_quant))])
    }
}

/// Bitmap folding: a group accepting all 256 characters is `.`, and a group
/// accepting exactly one character is that literal. (The MLIR-style
/// canonicalizations you get for free from a bitmap representation.)
struct SimplifyGroup;

impl RewritePattern for SimplifyGroup {
    fn name(&self) -> &'static str {
        "simplify-group"
    }

    fn matches(&self, op: &Operation) -> bool {
        op.is(names::GROUP) && matches!(group_chars(op).len(), 1 | 256)
    }

    fn apply(&self, op: Operation) -> Rewrite {
        let set = group_chars(&op);
        Rewrite::Replace(vec![if set.len() == 256 {
            ops::match_any_char()
        } else {
            ops::match_char(set.iter().next().expect("one char"))
        }])
    }
}

/// The bytes a verified `regex.group` accepts.
fn group_chars(op: &Operation) -> mlir_lite::ByteSet {
    op.attr(crate::ops::attrs::TARGET_CHARS)
        .and_then(mlir_lite::Attribute::as_byte_set)
        .expect("verified group")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ast_to_ir, ir_to_pattern};
    use mlir_lite::Context;

    fn canonicalize(pattern: &str) -> String {
        let mut ir = ast_to_ir(&regex_frontend::parse(pattern).unwrap());
        let mut ctx = Context::new();
        ctx.register_dialect(crate::dialect());
        CanonicalizePass.run(&mut ir, &ctx).unwrap();
        ctx.verify(&ir).expect("canonical IR must verify");
        ir_to_pattern(&ir)
    }

    #[test]
    fn paper_examples() {
        assert_eq!(canonicalize("(abc)"), "abc");
        assert_eq!(canonicalize("(abc)+"), "(abc)+", "precedence must be respected");
        assert_eq!(canonicalize("(a+)"), "a+");
        assert_eq!(canonicalize("(a)+"), "a+");
        assert_eq!(canonicalize("(a{2,3}){4,7}"), "(a{2,3}){4,7}");
    }

    #[test]
    fn nested_parentheses_unwrap_fully() {
        assert_eq!(canonicalize("((a))"), "a");
        assert_eq!(canonicalize("((ab)c)"), "abc");
        assert_eq!(canonicalize("(((a)))+"), "a+");
    }

    #[test]
    fn alternations_inside_groups_are_preserved() {
        assert_eq!(canonicalize("(a|b)"), "(a|b)");
        assert_eq!(canonicalize("(a|b)+"), "(a|b)+");
        assert_eq!(canonicalize("x(a|b)y"), "x(a|b)y");
    }

    #[test]
    fn group_folding() {
        assert_eq!(canonicalize("[a]"), "a");
        assert_eq!(canonicalize("[^a]"), "[^a]");
        assert_eq!(canonicalize("[ab]"), "[ab]");
        // `[^...]` of everything-but-nothing is `.`: constructed via IR
        // directly since the parser cannot write a full class.
        let mut ir = crate::ops::root(
            true,
            true,
            vec![crate::ops::concatenation(vec![crate::ops::piece(
                crate::ops::group(mlir_lite::ByteSet::FULL),
                None,
            )])],
        );
        let mut ctx = Context::new();
        ctx.register_dialect(crate::dialect());
        CanonicalizePass.run(&mut ir, &ctx).unwrap();
        assert_eq!(ir_to_pattern(&ir), ".");
    }

    #[test]
    fn quantified_single_atom_group_merges_through_class() {
        assert_eq!(canonicalize("([ab])+"), "[ab]+");
        assert_eq!(canonicalize("(.)?"), ".?");
    }

    #[test]
    fn inner_quantifier_blocks_merge() {
        assert_eq!(canonicalize("(a+)+"), "(a+)+");
        assert_eq!(canonicalize("(a?)*"), "(a?)*");
    }

    #[test]
    fn idempotent() {
        for p in ["(abc)", "(a)+", "((ab)c)", "(a|b)x", "[a]{2,3}"] {
            let once = canonicalize(p);
            assert_eq!(canonicalize(&once), once, "not idempotent on {p}");
        }
    }
}
