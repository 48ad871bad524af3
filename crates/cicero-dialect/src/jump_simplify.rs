//! The *Jump Simplification* back-end optimization (§5).
//!
//! The paper states it as rules on symbolic control flow, applied to each
//! `JumpOp` of a `cicero.program` to a fixed point:
//!
//! 1. a jump targeting the next operation is removed;
//! 2. a jump targeting an acceptance op is **replaced by a copy of that
//!    acceptance op** — "we relax the condition of a single acceptance
//!    state", letting the NFA traversal stop as soon as possible;
//! 3. a jump targeting another jump is retargeted to the final destination
//!    of the chain (unconditional jump threading, applied recursively).
//!
//! `SplitOp` targets are threaded through jump chains too — the same
//! always-safe unconditional threading the paper's footnote relates to
//! LLVM's JumpThreading. Code left unreachable is then removed (the
//! orphaned shared-acceptance block of Listing 2's middle layout); this is
//! what shrinks `ab|cd` from 11 to 10 instructions while dropping
//! `D_offset` from 14 to 9.
//!
//! On the dialect's control-flow graph every rule is a local rewrite, and
//! one pass reaches the fixed point:
//!
//! * Rules 3 and 2 are local to one branch, given where each block's chain
//!   of leading jumps ends (`Chains`, one walk over the blocks). The
//!   shared rewrite driver offers each branch to `ThreadSuccessor`, which
//!   rewrites a successor to the end of its chain, and then to
//!   `CopyAcceptance`, which replaces a jump to a block that starts with
//!   an acceptance by a copy of it.
//! * Neither rewrite can open a chain or an acceptance to another branch:
//!   only jumps change, and no branch still names a block that starts
//!   with one. So one layout walk (`prune`) finishes: it cuts each
//!   block after its first jump or acceptance, marks the blocks reachable
//!   from the entry with a worklist, drops each jump to the next block
//!   holding code (rule 1), walking backwards so that a block emptied by
//!   the drop is skipped by the jump before it, and drops the blocks that
//!   nothing reaches.
//!
//! Control flow names blocks, not addresses, so none of these rewrites
//! re-patch anything — the optimization the old compiler could not
//! express cheaply after its premature lowering (§2.1).

use mlir_lite::{
    apply_patterns_greedily, Context, Operation, Pass, PassError, Region, Rewrite, RewritePattern,
};

use crate::ops::{self, names};

/// Run Jump Simplification on a `cicero.program` in place.
///
/// # Panics
///
/// Panics if `program` is not a verified `cicero.program` (a branch to no
/// block, foreign ops).
pub fn jump_simplify(program: &mut Operation) {
    assert!(program.is(names::PROGRAM), "expected cicero.program, got {}", program.name());
    let chains = Chains::of(program.only_region());
    apply_patterns_greedily(program, &[&ThreadSuccessor(&chains), &CopyAcceptance(&chains)]);
    prune(program.only_region_mut());
}

/// [`jump_simplify`] as a pass for pipeline assembly.
#[derive(Debug, Clone, Copy, Default)]
pub struct JumpSimplificationPass;

impl Pass for JumpSimplificationPass {
    fn name(&self) -> &'static str {
        "cicero-jump-simplification"
    }

    fn run(&self, root: &mut Operation, _ctx: &Context) -> Result<(), PassError> {
        if !root.is(names::PROGRAM) {
            return Err(PassError::new(format!("expected cicero.program, got {}", root.name())));
        }
        jump_simplify(root);
        Ok(())
    }
}

/// Where control that enters each block goes once it has followed the
/// jumps the block starts with, and the acceptance it meets there.
struct Chains {
    /// Per block, the block its chain of leading jumps ends at: the block
    /// itself if it does not start with a jump or its chain runs into a
    /// cycle of jumps.
    end: Vec<u32>,
    /// Per block, the acceptance op it starts with, if any.
    acceptance: Vec<Option<Operation>>,
}

impl Chains {
    fn of(region: &Region) -> Chains {
        let blocks = region.block_count();
        // Per block, its first op, or the first op of a later block that
        // an empty block falls through to.
        let mut head = vec![None; blocks + 1];
        for block in (0..blocks).rev() {
            let range = region.block_range(block);
            head[block] = if range.is_empty() { head[block + 1] } else { Some(range.start) };
        }
        let head_op = |block: usize| head[block].map(|at| &region.ops[at]);
        const UNKNOWN: u32 = u32::MAX;
        const ON_PATH: u32 = u32::MAX - 1;
        let mut end = vec![UNKNOWN; blocks];
        let mut path = Vec::new();
        for block in 0..blocks {
            let mut at = block;
            while end[at] == UNKNOWN {
                match head_op(at) {
                    Some(op) if op.is(names::JUMP) => {
                        end[at] = ON_PATH;
                        path.push(at);
                        at = op.successors()[0] as usize;
                    }
                    _ => end[at] = at as u32,
                }
            }
            let chain_end = (end[at] != ON_PATH).then_some(end[at]);
            for on_path in path.drain(..) {
                end[on_path] = chain_end.unwrap_or(on_path as u32);
            }
        }
        let acceptance =
            (0..blocks).map(|block| head_op(block).filter(|op| ops::is_acceptance(op)).cloned());
        Chains { end, acceptance: acceptance.collect() }
    }
}

/// Rule 3 and its split extension: a branch into a chain of jumps names
/// the block the chain ends at.
struct ThreadSuccessor<'a>(&'a Chains);

impl RewritePattern for ThreadSuccessor<'_> {
    fn name(&self) -> &'static str {
        "thread-successor"
    }

    fn matches(&self, op: &Operation) -> bool {
        matches!(*op.successors(), [block] if self.0.end[block as usize] != block)
    }

    fn apply(&self, mut op: Operation) -> Rewrite {
        let block = &mut op.successors_mut()[0];
        *block = self.0.end[*block as usize];
        Rewrite::Modified(op)
    }
}

/// Rule 2: a jump to a block that starts with an acceptance becomes a copy
/// of it (`accept_partial_id` keeps the identifier it reports).
struct CopyAcceptance<'a>(&'a Chains);

impl CopyAcceptance<'_> {
    fn acceptance(&self, op: &Operation) -> Option<&Operation> {
        match *op.successors() {
            [block] if op.is(names::JUMP) => self.0.acceptance[block as usize].as_ref(),
            _ => None,
        }
    }
}

impl RewritePattern for CopyAcceptance<'_> {
    fn name(&self) -> &'static str {
        "copy-acceptance"
    }

    fn matches(&self, op: &Operation) -> bool {
        self.acceptance(op).is_some()
    }

    fn apply(&self, op: Operation) -> Rewrite {
        Rewrite::Modified(self.acceptance(&op).expect("matched").clone())
    }
}

/// What the layout walk knows of a block.
#[derive(Clone, Copy, Default)]
struct Block {
    /// Whether control reaches the block from the entry.
    reached: bool,
    /// How many of its ops are kept: those that can run, up to the first
    /// that does not fall through, less a dropped jump to the next block.
    kept: usize,
    /// How many kept branches name the block.
    preds: u32,
}

/// The layout walk after the local rewrites: cut each block after its
/// first op that does not fall through, keep the blocks reachable from
/// the entry, and drop each jump to the next block holding code (rule 1)
/// and each block left empty that no branch names.
fn prune(region: &mut Region) {
    let count = region.block_count();
    let mut blocks = vec![Block::default(); count];
    let mut worklist = vec![0];
    while let Some(block) = worklist.pop() {
        if block == count || blocks[block].reached {
            continue;
        }
        let ops = region.block(block);
        let runs = ops.iter().position(|op| !ops::falls_through(op)).map_or(ops.len(), |at| at + 1);
        blocks[block] = Block { reached: true, kept: runs, ..blocks[block] };
        for &to in ops[..runs].iter().flat_map(Operation::successors) {
            blocks[to as usize].preds += 1;
            worklist.push(to as usize);
        }
        if ops[..runs].last().is_none_or(ops::falls_through) {
            worklist.push(block + 1);
        }
    }
    // Backwards, so that `land[b]`, the first block from `b` on that keeps
    // an op (`count` past the last), is final for the blocks after the one
    // at hand.
    let mut land = vec![count; count + 1];
    for block in (0..count).rev() {
        if let Some(last) = blocks[block].kept.checked_sub(1).map(|at| &region.block(block)[at]) {
            let to = last.successors().first().map_or(0, |&to| to as usize);
            if last.is(names::JUMP) && to > block && land[to] == land[block + 1] {
                blocks[block].kept -= 1;
                blocks[to].preds -= 1;
            }
        }
        land[block] = if blocks[block].kept > 0 { block } else { land[block + 1] };
    }
    region.retain_blocks(|at| {
        let Block { reached, kept, preds } = blocks[at];
        (at == 0 || reached && (kept > 0 || preds > 0)).then_some(kept)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::codegen;
    use crate::lowering::lower_to_cicero;
    use cicero_isa::Instruction;
    use mlir_lite::{Context, Region};

    fn simplified(pattern: &str) -> cicero_isa::Program {
        let ast = regex_frontend::parse(pattern).unwrap();
        let ir = regex_dialect::ast_to_ir(&ast);
        let mut program = lower_to_cicero(&ir).unwrap();
        jump_simplify(&mut program);
        let mut ctx = Context::new();
        ctx.register_dialect(crate::dialect());
        ctx.verify(&program).expect("simplified IR must verify");
        codegen(&program).unwrap()
    }

    #[test]
    fn listing2_jump_simplification_column() {
        use Instruction::*;
        // The exact right column of Listing 2: D_offset 9, 10 instructions.
        let program = simplified("ab|cd");
        assert_eq!(
            program.instructions(),
            &[
                Split(3),
                MatchAny,
                Jump(0),
                Split(7),
                Match(b'a'),
                Match(b'b'),
                AcceptPartial,
                Match(b'c'),
                Match(b'd'),
                AcceptPartial,
            ]
        );
        assert_eq!(program.total_jump_offset(), 9);
    }

    #[test]
    fn loop_back_jumps_survive() {
        use Instruction::*;
        // The `.*` prefix loop's back jump is load-bearing.
        let program = simplified("^a*$");
        assert_eq!(program.instructions(), &[Split(3), Match(b'a'), Jump(0), Accept]);
    }

    #[test]
    fn jump_chains_are_threaded() {
        use crate::ops::*;
        // match a; jmp ^x; ^x: jmp ^y; ^y: match b; accept
        let mut program = program(Region::from_blocks([
            vec![match_char(b'a'), jump(1)],
            vec![jump(2)],
            vec![match_char(b'b'), accept_partial()],
        ]));
        jump_simplify(&mut program);
        // jmp ^x threads to ^y; ^x: jmp ^y becomes unreachable and is
        // removed; then jmp ^y targets the next block and is removed too.
        let compiled = codegen(&program).unwrap();
        use Instruction::*;
        assert_eq!(compiled.instructions(), &[Match(b'a'), Match(b'b'), AcceptPartial]);
    }

    #[test]
    fn a_branch_to_a_dropped_jump_lands_after_it() {
        use crate::ops::*;
        // The split targets a jump to the next block, which is removed.
        let mut program = program(Region::from_blocks([
            vec![split(1), match_char(b'a')],
            vec![jump(2)],
            vec![match_char(b'b'), accept_partial()],
        ]));
        jump_simplify(&mut program);
        let compiled = codegen(&program).unwrap();
        use Instruction::*;
        assert_eq!(compiled.instructions(), &[Split(2), Match(b'a'), Match(b'b'), AcceptPartial]);
    }

    #[test]
    fn a_cycle_of_jumps_is_not_threaded_but_its_jumps_to_next_go() {
        use crate::ops::*;
        // ^bb0: split ^bb1; match a; jmp ^bb2  ^bb1: jmp ^bb2  ^bb2: jmp ^bb1
        let mut program = program(Region::from_blocks([
            vec![split(1), match_char(b'a'), jump(2)],
            vec![jump(2)],
            vec![jump(1)],
        ]));
        jump_simplify(&mut program);
        // Both jumps into the cycle keep their blocks; the two jumps to
        // the next block go, which leaves one jump looping on itself.
        use Instruction::*;
        let compiled = codegen(&program).unwrap();
        assert_eq!(compiled.instructions(), &[Split(2), Match(b'a'), Jump(2)]);
    }

    #[test]
    fn simplification_is_idempotent() {
        for pattern in ["ab|cd", "a|b|c", "(ab)+x?", "th(is|at|ose)"] {
            let ast = regex_frontend::parse(pattern).unwrap();
            let ir = regex_dialect::ast_to_ir(&ast);
            let mut once = lower_to_cicero(&ir).unwrap();
            jump_simplify(&mut once);
            let mut twice = once.clone();
            jump_simplify(&mut twice);
            assert_eq!(once, twice, "not idempotent on {pattern}");
        }
    }

    #[test]
    fn simplification_never_grows_code_or_d_offset() {
        for pattern in ["ab|cd", "a|b|c|d", "x(y|z)+w", "[abc]{2,3}", "a*b*c*"] {
            let ast = regex_frontend::parse(pattern).unwrap();
            let ir = regex_dialect::ast_to_ir(&ast);
            let baseline = lower_to_cicero(&ir).unwrap();
            let unopt = codegen(&baseline).unwrap();
            let mut optimized = baseline.clone();
            jump_simplify(&mut optimized);
            let opt = codegen(&optimized).unwrap();
            assert!(opt.len() <= unopt.len(), "{pattern}: grew");
            assert!(
                opt.total_jump_offset() <= unopt.total_jump_offset(),
                "{pattern}: D_offset grew from {} to {}",
                unopt.total_jump_offset(),
                opt.total_jump_offset()
            );
        }
    }
}
