//! The *Jump Simplification* back-end optimization (§5).
//!
//! Applied to each `JumpOp` of a `cicero.program`, to a fixed point:
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
//! LLVM's JumpThreading.
//!
//! After the rules converge, unreachable operations are removed (the
//! orphaned shared-acceptance block of Listing 2's middle layout); this is
//! what shrinks `ab|cd` from 11 to 10 instructions while dropping
//! `D_offset` from 14 to 9.
//!
//! Because control flow is still symbolic at this level, none of these
//! rewrites re-patch addresses — the optimization the old compiler could
//! not express cheaply after its premature lowering (§2.1). The rules
//! read branch targets as op indices, resolved from the symbols once
//! ([`ops::resolve_targets`]); a retargeted branch shares its new target's
//! label string instead of copying it.

use mlir_lite::{Attribute, Context, Operation, Pass, PassError};

use crate::ops::{self, attrs, names};

/// Run Jump Simplification on a `cicero.program` in place.
///
/// # Panics
///
/// Panics if `program` is not a verified `cicero.program` (undefined
/// symbols, foreign ops).
pub fn jump_simplify(program: &mut Operation) {
    assert!(program.is(names::PROGRAM), "expected cicero.program, got {}", program.name());
    let body = &mut program.only_region_mut().ops;
    let mut targets = ops::resolve_targets(body).expect("a verified program resolves");
    loop {
        let mut changed = thread_jump_chains(body, &mut targets);
        changed |= duplicate_acceptances(body, &mut targets);
        changed |= remove_jumps_to_next(body, &mut targets);
        changed |= remove_unreachable(body, &mut targets);
        if !changed {
            break;
        }
    }
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

/// Point the branch at `body[i]` to `body[destination]`, which is labeled.
fn retarget(body: &mut [Operation], targets: &mut [Option<usize>], i: usize, destination: usize) {
    let label = ops::label(&body[destination]).expect("a branch target is labeled");
    body[i].set_attr(attrs::TARGET, Attribute::Symbol(label));
    targets[i] = Some(destination);
}

/// Rule 3 (+ split extension): follow chains of unconditional jumps.
fn thread_jump_chains(body: &mut [Operation], targets: &mut [Option<usize>]) -> bool {
    let final_destination = |start: usize| -> Option<usize> {
        let mut current = start;
        // Bounded walk: cycles of jumps (degenerate but representable)
        // terminate at the bound and are left alone.
        for _ in 0..body.len() {
            if !body[current].is(names::JUMP) {
                break;
            }
            current = targets[current]?;
        }
        Some(current)
    };
    let updates: Vec<(usize, usize)> = (0..body.len())
        .filter_map(|i| {
            let target = targets[i]?;
            let destination = final_destination(target)?;
            (destination != target).then_some((i, destination))
        })
        .collect();
    for &(i, destination) in &updates {
        retarget(body, targets, i, destination);
    }
    !updates.is_empty()
}

/// Rule 2: replace jumps to acceptance ops with the acceptance itself.
fn duplicate_acceptances(body: &mut [Operation], targets: &mut [Option<usize>]) -> bool {
    let mut replacements = Vec::new();
    for (i, op) in body.iter().enumerate() {
        let Some(target) = targets[i] else { continue };
        if op.is(names::JUMP) && ops::is_acceptance(&body[target]) {
            // Clone the acceptance wholesale: `accept_partial_id` carries
            // the RE identifier that the duplicate must preserve.
            let mut clone = body[target].clone();
            clone.take_attr(attrs::SYM_NAME);
            replacements.push((i, clone));
        }
    }
    let changed = !replacements.is_empty();
    for (i, mut replacement) in replacements {
        if let Some(sym) = body[i].take_attr(attrs::SYM_NAME) {
            replacement.set_attr(attrs::SYM_NAME, sym);
        }
        body[i] = replacement;
        targets[i] = None;
    }
    changed
}

/// Rule 1: remove jumps that target the very next operation.
///
/// All removable jumps are collected in one scan and removed in one
/// rebuild — the scan-per-removal alternative would make this pass
/// quadratic on the alternation-heavy suites.
fn remove_jumps_to_next(body: &mut Vec<Operation>, targets: &mut Vec<Option<usize>>) -> bool {
    let removable: Vec<bool> =
        (0..body.len()).map(|i| body[i].is(names::JUMP) && targets[i] == Some(i + 1)).collect();
    if !removable.contains(&true) {
        return false;
    }
    // A branch to a removed jump lands on the first kept op after it,
    // which is labeled: the removed jump before it targets it.
    let mut landing: Vec<usize> = (0..body.len()).collect();
    for index in (0..body.len()).rev().filter(|&index| removable[index]) {
        landing[index] = landing[index + 1];
    }
    for i in 0..body.len() {
        let Some(target) = targets[i].filter(|&target| removable[target]) else { continue };
        retarget(body, targets, i, landing[target]);
    }
    let keep: Vec<bool> = removable.iter().map(|removed| !removed).collect();
    retain(body, targets, &keep);
    true
}

/// Remove operations unreachable from the entry (index 0): acceptance and
/// jump ops do not fall through, so code after them is dead unless
/// branched to.
fn remove_unreachable(body: &mut Vec<Operation>, targets: &mut Vec<Option<usize>>) -> bool {
    if body.is_empty() {
        return false;
    }
    let mut reachable = vec![false; body.len()];
    let mut worklist = vec![0usize];
    while let Some(index) = worklist.pop() {
        if index >= body.len() || reachable[index] {
            continue;
        }
        reachable[index] = true;
        if ops::falls_through(&body[index]) {
            worklist.push(index + 1);
        }
        worklist.extend(targets[index]);
    }
    if reachable.iter().all(|r| *r) {
        return false;
    }
    retain(body, targets, &reachable);
    true
}

/// Keep the ops flagged in `keep`, renumbering `targets`; every kept op
/// must branch to a kept op.
fn retain(body: &mut Vec<Operation>, targets: &mut Vec<Option<usize>>, keep: &[bool]) {
    let mut renumbered = Vec::with_capacity(keep.len());
    let mut kept = 0;
    for &is_kept in keep {
        renumbered.push(kept);
        kept += usize::from(is_kept);
    }
    let mut flags = keep.iter();
    body.retain(|_| *flags.next().expect("one flag per op"));
    let mut flags = keep.iter();
    targets.retain(|_| *flags.next().expect("one flag per op"));
    for target in targets.iter_mut().flatten() {
        *target = renumbered[*target];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::codegen;
    use crate::lowering::lower_to_cicero;
    use cicero_isa::Instruction;
    use mlir_lite::Context;

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
        use mlir_lite::Attribute;
        let labeled = |mut op: Operation, s: &str| {
            op.set_attr(attrs::SYM_NAME, Attribute::Str(s.into()));
            op
        };
        // match a; jmp @x; …; x: jmp @y; …; y: match b; accept
        let mut program = program(vec![
            match_char(b'a'),
            jump("x"),
            labeled(jump("y"), "x"),
            labeled(match_char(b'b'), "y"),
            accept_partial(),
        ]);
        jump_simplify(&mut program);
        let compiled = codegen(&program).unwrap();
        use Instruction::*;
        // jmp@x threads to y; x: jmp@y becomes unreachable and is removed;
        // then jmp@y targets next and is removed too.
        assert_eq!(compiled.instructions(), &[Match(b'a'), Match(b'b'), AcceptPartial]);
    }

    #[test]
    fn symbol_on_removed_jump_migrates() {
        use crate::ops::*;
        use mlir_lite::Attribute;
        let labeled = |mut op: Operation, s: &str| {
            op.set_attr(attrs::SYM_NAME, Attribute::Str(s.into()));
            op
        };
        // split targets the jump that will be removed.
        let mut program = program(vec![
            split("j"),
            match_char(b'a'),
            labeled(jump("k"), "j"),
            labeled(match_char(b'b'), "k"),
            accept_partial(),
        ]);
        jump_simplify(&mut program);
        let compiled = codegen(&program).unwrap();
        use Instruction::*;
        assert_eq!(compiled.instructions(), &[Split(2), Match(b'a'), Match(b'b'), AcceptPartial]);
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
