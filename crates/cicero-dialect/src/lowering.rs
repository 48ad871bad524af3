//! Lowering from the `regex` dialect to the `cicero` dialect.
//!
//! The lowering is a Thompson-style construction emitted directly in
//! instruction-memory order ("the process maps basic blocks to instruction
//! memory and inserts control instructions", §3): one sequential walk
//! appends each op to one emitter, and only a nested group recurses,
//! which the parser's group-nesting limit bounds. The layout discipline
//! reproduces the paper's Listing 2 exactly:
//!
//! * the implicit `.*` prefix becomes `L: SPLIT @body; MATCH_ANY; JMP @L`;
//! * the root alternation emits its first branch, then the **shared
//!   acceptance op**, then the remaining branches, each ending in a jump
//!   back to it; a nested alternation emits all its branches, each ending
//!   in a jump to the join after the last one;
//! * every quantifier expands by copy (`min` mandatory copies, then a
//!   star/plus loop or a chain of optionals sharing one exit label).
//!
//! Character classes pick the cheaper of the two encodings of §3.3: a
//! split-tree of `MatchCharOp`s for the member set, or a
//! `NotMatchCharOp` chain over the complement followed by `MatchAnyOp`
//! (the encoding the paper shows for `[^ab]`).
//!
//! The emitter refuses a program past [`MAX_LOWERED_OPS`], so a pattern
//! whose counted quantifiers multiply past the ISA's address space is
//! refused after a bounded amount of work, not expanded in full first.

use std::sync::Arc;

use mlir_lite::{Attribute, Ident, Operation};
use regex_dialect::ops as rx;

use crate::ops::{self, attrs, names};

/// The ISA's address space: the most instructions a program may hold.
const ADDRESS_SPACE: usize = cicero_isa::MAX_OPERAND as usize + 1;

/// The most ops a lowering may hold; the one after them refuses the
/// program. Not a knob: no program that Jump Simplification fits into the
/// address space lowers to more. Of `s` splits,
/// `j` jumps and `r` other ops lowered, simplification removes only jumps
/// and the shared acceptance it orphans once the root's jumps to it have
/// become acceptances, so it keeps at least `s + r`. Every jump closes a
/// branch of a list that has one split fewer than branches, or a loop
/// that has one split, so `j ≤ 2s` and `s + j + r ≤ 3 × (s + r)`. In
/// practice the ratio is far lower: 1.43 at most, on `^gdg|gd|g`, over the
/// benchmark suites and 20,000 generated patterns. Codegen's
/// `ProgramError::TooLong` remains the exact wall.
pub const MAX_LOWERED_OPS: usize = 3 * ADDRESS_SPACE;

/// A lowering step: `Err` carries the refusal of a program too long for
/// the address space.
type Lowered = Result<(), String>;

/// Lower verified `regex.root` IR into a `cicero.program`.
///
/// # Errors
///
/// Refuses a program that grows past [`MAX_LOWERED_OPS`] ops.
///
/// # Panics
///
/// Panics if `root` is not well-formed `regex` dialect IR — run
/// [`mlir_lite::Context::verify`] first when handling untrusted IR.
pub fn lower_to_cicero(root: &Operation) -> Result<Operation, String> {
    assert!(root.is(rx::names::ROOT), "expected regex.root, got {}", root.name());
    let flag = |key| root.attr(key).and_then(Attribute::as_bool).expect("verified");
    let accept = if flag(rx::attrs::HAS_SUFFIX) { ops::accept_partial } else { ops::accept };
    let mut e = Emitter::default();
    if flag(rx::attrs::HAS_PREFIX) {
        e.scan_loop()?;
    }
    match root.only_region().ops.as_slice() {
        [] => panic!("branch list cannot be empty"),
        [only] => {
            lower_concat(&mut e, only)?;
            e.emit(accept())?;
        }
        // Listing 2's root layout: branch 0, then the shared acceptance,
        // then branches 1…n−1 jumping back to it.
        [first, rest @ ..] => {
            let join = e.fresh();
            let later = e.fresh();
            e.branch(names::SPLIT, later)?;
            lower_concat(&mut e, first)?;
            e.branch(names::JUMP, join)?;
            e.define_label(join);
            e.emit(accept())?;
            e.define_label(later);
            lower_branches(&mut e, rest.len(), join, |e, i| lower_concat(e, &rest[i]))?;
        }
    }
    Ok(e.finish())
}

/// Lower a *set* of patterns into one multi-matching `cicero.program`
/// (the paper's Future Work: "the execution engine could return the RE
/// identifiers when a match occurs").
///
/// Each pattern `i`'s branches terminate in `cicero.accept_partial_id(i)`,
/// so the engine halts on the first match and reports which RE fired. A
/// single shared `.*` scan loop feeds all patterns.
///
/// # Errors
///
/// Returns an error message if any pattern is anchored (`^`/`$`): in a
/// combined scan every pattern is re-entered at every input position, so
/// only match-anywhere patterns compose. (This mirrors multi-pattern DPI
/// engines, which operate on unanchored signatures.) Refuses a program
/// that grows past [`MAX_LOWERED_OPS`] ops.
pub fn lower_multi(roots: &[&Operation]) -> Result<Operation, String> {
    if roots.is_empty() {
        return Err("multi-matching needs at least one pattern".to_owned());
    }
    if roots.len() > usize::from(cicero_isa::MAX_OPERAND) {
        return Err(format!("at most {} patterns are addressable", cicero_isa::MAX_OPERAND));
    }
    for (i, root) in roots.iter().enumerate() {
        assert!(root.is(rx::names::ROOT), "expected regex.root, got {}", root.name());
        let anchored = |key| root.attr(key).and_then(Attribute::as_bool) != Some(true);
        if anchored(rx::attrs::HAS_PREFIX) || anchored(rx::attrs::HAS_SUFFIX) {
            return Err(format!(
                "pattern {i} is anchored; multi-matching requires unanchored patterns"
            ));
        }
    }
    let mut e = Emitter::default();
    e.scan_loop()?;
    // Chain of splits fanning out to each pattern's body; each body ends
    // in its own identified acceptance.
    for (i, root) in roots.iter().enumerate() {
        let next_pattern = (i + 1 < roots.len()).then(|| e.fresh());
        if let Some(label) = next_pattern {
            e.branch(names::SPLIT, label)?;
        }
        lower_alternation(&mut e, &root.only_region().ops)?;
        e.emit(ops::accept_partial_id(i as u16))?;
        if let Some(label) = next_pattern {
            e.define_label(label);
        }
    }
    Ok(e.finish())
}

/// A label: an index into [`Emitter::label_at`], printed `L<index>`.
type Label = usize;

/// Instruction emitter with pending-label bookkeeping. Labels are indices
/// until [`Emitter::finish`], which writes each labeled op's `sym_name`
/// and every branch's `target` from one shared string per label.
#[derive(Default)]
struct Emitter {
    body: Vec<Operation>,
    /// Per label, the op it landed on (`usize::MAX` until emitted).
    label_at: Vec<usize>,
    /// Labels waiting to be attached to the next emitted op.
    pending: Vec<Label>,
    /// Each labeled op and the first label attached to it, which names it.
    named: Vec<(usize, Label)>,
    /// Each branch op and the label it targets.
    branches: Vec<(usize, Label)>,
}

impl Emitter {
    fn fresh(&mut self) -> Label {
        self.label_at.push(usize::MAX);
        self.label_at.len() - 1
    }

    /// Attach `label` to the next emitted op.
    fn define_label(&mut self, label: Label) {
        self.pending.push(label);
    }

    fn emit(&mut self, op: Operation) -> Lowered {
        if self.body.len() == MAX_LOWERED_OPS {
            return Err(format!(
                "program exceeds the {ADDRESS_SPACE}-instruction address space: \
                 its lowering passed {MAX_LOWERED_OPS} ops"
            ));
        }
        if let Some(&first) = self.pending.first() {
            self.named.push((self.body.len(), first));
            for label in self.pending.drain(..) {
                self.label_at[label] = self.body.len();
            }
        }
        self.body.push(op);
        Ok(())
    }

    /// Emit a `split` or `jump` to `target`.
    fn branch(&mut self, name: &'static Ident, target: Label) -> Lowered {
        self.branches.push((self.body.len(), target));
        self.emit(Operation::new(name))
    }

    /// The implicit `.*` prefix: `L: SPLIT @body; MATCH_ANY; JMP @L; body:`.
    fn scan_loop(&mut self) -> Lowered {
        let loop_label = self.fresh();
        let body = self.fresh();
        self.define_label(loop_label);
        self.branch(names::SPLIT, body)?;
        self.emit(ops::match_any())?;
        self.branch(names::JUMP, loop_label)?;
        self.define_label(body);
        Ok(())
    }

    fn finish(mut self) -> Operation {
        assert!(self.pending.is_empty(), "labels defined past the end of the program");
        let mut names: Vec<Option<Arc<str>>> = vec![None; self.body.len()];
        for (at, label) in self.named {
            let name: Arc<str> = format!("L{label}").into();
            self.body[at].set_attr(attrs::SYM_NAME, Attribute::Str(name.clone()));
            names[at] = Some(name);
        }
        for (at, label) in self.branches {
            let name = names[self.label_at[label]].clone().expect("a branch target is labeled");
            self.body[at].set_attr(attrs::TARGET, Attribute::Symbol(name));
        }
        ops::program(self.body)
    }
}

/// Emit an `n`-way branch list: every branch but the last is entered
/// through a `SPLIT` past it, and every branch ends in `JMP join` (Jump
/// Simplification later removes the jump-to-next, as Listing 2 shows for
/// the unoptimized layout).
fn lower_branches(
    e: &mut Emitter,
    n: usize,
    join: Label,
    mut emit_branch: impl FnMut(&mut Emitter, usize) -> Lowered,
) -> Lowered {
    for i in 0..n {
        let after = (i + 1 < n).then(|| e.fresh());
        if let Some(after) = after {
            e.branch(names::SPLIT, after)?;
        }
        emit_branch(e, i)?;
        e.branch(names::JUMP, join)?;
        if let Some(after) = after {
            e.define_label(after);
        }
    }
    Ok(())
}

/// A branch list nested in a pattern: all branches first, the join after
/// the last, which keeps every enclosing construct contiguous in memory.
fn lower_nested(
    e: &mut Emitter,
    n: usize,
    mut emit_branch: impl FnMut(&mut Emitter, usize) -> Lowered,
) -> Lowered {
    assert!(n > 0, "branch list cannot be empty");
    if n == 1 {
        return emit_branch(e, 0);
    }
    let join = e.fresh();
    lower_branches(e, n, join, emit_branch)?;
    e.define_label(join);
    Ok(())
}

/// Lower the `regex.concatenation`s of an alternation.
fn lower_alternation(e: &mut Emitter, alternatives: &[Operation]) -> Lowered {
    lower_nested(e, alternatives.len(), |e, i| lower_concat(e, &alternatives[i]))
}

/// Lower one `regex.concatenation`, piece by piece.
fn lower_concat(e: &mut Emitter, concat: &Operation) -> Lowered {
    for piece in &concat.only_region().ops {
        match rx::piece_parts(piece) {
            (atom, None) => lower_atom(e, atom)?,
            (atom, Some(q)) => {
                let (min, max) = rx::quantifier_bounds(q);
                lower_quantified(e, atom, min, max)?;
            }
        }
    }
    Ok(())
}

/// Expand `atom{min,max}` by copy.
fn lower_quantified(e: &mut Emitter, atom: &Operation, min: u32, max: Option<u32>) -> Lowered {
    // `X{m,}` keeps its last mandatory copy for the plus loop.
    let copies = if max.is_none() { min.saturating_sub(1) } else { min };
    for _ in 0..copies {
        lower_atom(e, atom)?;
    }
    match max {
        // `X+` gets the tight two-op form: `L: X; SPLIT @L` with the split
        // falling through to what follows.
        None if min > 0 => {
            let back = e.fresh();
            e.define_label(back);
            lower_atom(e, atom)?;
            e.branch(names::SPLIT, back)?;
        }
        // `X*`: `L: SPLIT @exit; X; JMP @L; exit:`.
        None => {
            let head = e.fresh();
            let exit = e.fresh();
            e.define_label(head);
            e.branch(names::SPLIT, exit)?;
            lower_atom(e, atom)?;
            e.branch(names::JUMP, head)?;
            e.define_label(exit);
        }
        // `X{0,k}`: a chain of optionals sharing one exit label.
        Some(max) if max > min => {
            let exit = e.fresh();
            for _ in min..max {
                e.branch(names::SPLIT, exit)?;
                lower_atom(e, atom)?;
            }
            e.define_label(exit);
        }
        Some(_) => {}
    }
    Ok(())
}

fn lower_atom(e: &mut Emitter, atom: &Operation) -> Lowered {
    if atom.is(rx::names::MATCH_CHAR) {
        e.emit(ops::match_char(
            atom.attr(rx::attrs::TARGET_CHAR).and_then(Attribute::as_char).expect("verified"),
        ))
    } else if atom.is(rx::names::MATCH_ANY_CHAR) {
        e.emit(ops::match_any())
    } else if atom.is(rx::names::DOLLAR) {
        // `$` asserts end-of-input; in the ISA that is exact acceptance.
        // Anything after it is unreachable.
        e.emit(ops::accept())
    } else if atom.is(rx::names::GROUP) {
        lower_group(e, atom)
    } else if atom.is(rx::names::SUB_REGEX) {
        lower_alternation(e, &atom.only_region().ops)
    } else {
        panic!("unexpected regex atom {}", atom.name())
    }
}

/// Lower a character class, choosing the cheaper §3.3 encoding.
fn lower_group(e: &mut Emitter, group: &Operation) -> Lowered {
    let set =
        group.attr(rx::attrs::TARGET_CHARS).and_then(Attribute::as_byte_set).expect("verified");
    let members = set.len();
    // A positive branch costs ~3 ops per member (split, match, jump); the
    // negated encoding costs 1 op per excluded char plus one MATCH_ANY.
    if 3 * members <= 256 - members + 1 || set.is_full() {
        let members: Vec<u8> = set.iter().collect();
        lower_nested(e, members.len(), |e, i| e.emit(ops::match_char(members[i])))
    } else {
        // `[^ab]` → `NotMatch(a); NotMatch(b); MatchAny` (§3.3).
        for c in mlir_lite::ByteSet::FULL.difference(set).iter() {
            e.emit(ops::not_match_char(c))?;
        }
        e.emit(ops::match_any())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::codegen;
    use crate::jump_simplify::jump_simplify;
    use cicero_isa::Instruction;
    use mlir_lite::Context;

    fn ir(pattern: &str) -> Operation {
        regex_dialect::ast_to_ir(&regex_frontend::parse(pattern).unwrap())
    }

    fn lower(pattern: &str) -> Operation {
        let program = lower_to_cicero(&ir(pattern)).unwrap();
        let mut ctx = Context::new();
        ctx.register_dialect(crate::dialect());
        ctx.verify(&program).expect("lowering must produce verified IR");
        program
    }

    fn asm(pattern: &str) -> Vec<Instruction> {
        codegen(&lower(pattern)).unwrap().instructions().to_vec()
    }

    #[test]
    fn listing2_no_opt_layout() {
        use Instruction::*;
        // `ab|cd` with implicit `.*` — the exact left column of Listing 2.
        assert_eq!(
            asm("ab|cd"),
            vec![
                Split(3),
                MatchAny,
                Jump(0),
                Split(8),
                Match(b'a'),
                Match(b'b'),
                Jump(7),
                AcceptPartial,
                Match(b'c'),
                Match(b'd'),
                Jump(7),
            ]
        );
    }

    #[test]
    fn anchored_pattern_uses_exact_accept_and_no_prefix_loop() {
        use Instruction::*;
        assert_eq!(asm("^ab$"), vec![Match(b'a'), Match(b'b'), Accept]);
    }

    #[test]
    fn star_and_plus_forms() {
        use Instruction::*;
        // `^a*$`: L: SPLIT @exit; MATCH a; JMP @L; exit: ACCEPT.
        assert_eq!(asm("^a*$"), vec![Split(3), Match(b'a'), Jump(0), Accept]);
        // `^a+$`: L: MATCH a; SPLIT @L; ACCEPT.
        assert_eq!(asm("^a+$"), vec![Match(b'a'), Split(0), Accept]);
    }

    #[test]
    fn counted_quantifiers_expand_by_copy() {
        use Instruction::*;
        // `^a{2,4}$` = a a (a (a)?)? with one shared exit.
        assert_eq!(
            asm("^a{2,4}$"),
            vec![Match(b'a'), Match(b'a'), Split(6), Match(b'a'), Split(6), Match(b'a'), Accept,]
        );
    }

    #[test]
    fn unbounded_min_form() {
        use Instruction::*;
        // `^a{2,}$` = a then the tight plus loop on the second copy.
        assert_eq!(asm("^a{2,}$"), vec![Match(b'a'), Match(b'a'), Split(1), Accept]);
    }

    #[test]
    fn negated_class_lowering_matches_paper() {
        use Instruction::*;
        // `[^ab]` (anchored to skip the prefix loop):
        // NotMatch(a); NotMatch(b); MatchAny (§3.3).
        assert_eq!(asm("^[^ab]$"), vec![NotMatch(b'a'), NotMatch(b'b'), MatchAny, Accept]);
    }

    #[test]
    fn small_positive_class_uses_split_tree() {
        // Inner alternations use the classic join-at-end layout, keeping
        // the class contiguous in instruction memory.
        let code = asm("^[ab]$");
        use Instruction::*;
        assert_eq!(code, vec![Split(3), Match(b'a'), Jump(5), Match(b'b'), Jump(5), Accept]);
    }

    #[test]
    fn wide_positive_class_uses_negated_encoding() {
        // `[a-z]` has 26 members (78 ops positive) vs 230 excluded + 1 —
        // positive wins; `.`-minus-two (254 members) must flip to negated.
        let code = asm("^[^\\n\\r]$");
        assert_eq!(code.len(), 4, "{code:?}"); // NotMatch, NotMatch, MatchAny, Accept
    }

    #[test]
    fn three_way_alternation_shares_one_acceptance() {
        let code = asm("^a|b|c$");
        let accepts = code.iter().filter(|i| i.is_acceptance()).count();
        assert_eq!(accepts, 1, "{code:?}");
    }

    #[test]
    fn empty_alternative_jumps_straight_to_join() {
        // `ab|` — second branch is empty.
        let program = lower("^ab|$");
        let body = &program.only_region().ops;
        assert!(body.last().unwrap().is(crate::names::JUMP), "{program}");
    }

    #[test]
    fn lowering_is_deterministic() {
        assert_eq!(lower("a(b|c)*d"), lower("a(b|c)*d"));
    }

    #[test]
    fn a_program_past_the_wall_before_simplification_still_compiles() {
        // 7 ops per `(ab|cd)` copy lower past 8,192; dropping each copy's
        // jump-to-next fits the address space, and under the cap.
        let mut program = lower("(ab|cd){1024}(ab|cd){200}");
        assert_eq!(program.only_region().ops.len(), 8_572);
        jump_simplify(&mut program);
        assert_eq!(codegen(&program).unwrap().len(), 7_348);
    }

    #[test]
    fn the_cap_admits_exactly_max_lowered_ops() {
        let fill = MAX_LOWERED_OPS - 4; // the scan loop and the acceptance
        let exact = format!("(a{{1024}}){{{}}}a{{{}}}", fill / 1024, fill % 1024);
        assert_eq!(lower(&exact).only_region().ops.len(), MAX_LOWERED_OPS);
        let message = lower_to_cicero(&ir(&format!("{exact}a"))).unwrap_err();
        assert!(message.contains("8192-instruction address space"), "{message}");
    }

    fn lower_set(patterns: &[&str]) -> cicero_isa::Program {
        let irs: Vec<Operation> = patterns.iter().map(|p| ir(p)).collect();
        let refs: Vec<&Operation> = irs.iter().collect();
        let mut program = lower_multi(&refs).unwrap();
        let mut ctx = Context::new();
        ctx.register_dialect(crate::dialect());
        ctx.verify(&program).expect("multi lowering must verify");
        jump_simplify(&mut program);
        ctx.verify(&program).expect("still valid after simplification");
        codegen(&program).unwrap()
    }

    #[test]
    fn reports_the_matching_pattern_id() {
        let program = lower_set(&["abc", "xyz", "q+r"]);
        assert_eq!(cicero_isa::run(&program, b"__abc__").matched_id, Some(0));
        assert_eq!(cicero_isa::run(&program, b"__xyz__").matched_id, Some(1));
        assert_eq!(cicero_isa::run(&program, b"__qqr__").matched_id, Some(2));
        let miss = cicero_isa::run(&program, b"nothing");
        assert!(!miss.accepted);
        assert_eq!(miss.matched_id, None);
    }

    #[test]
    fn single_program_is_smaller_than_the_sum_of_parts() {
        // The shared scan loop is emitted once instead of once per RE.
        let combined = lower_set(&["abc", "xyz"]);
        let separate: usize = ["abc", "xyz"]
            .iter()
            .map(|p| {
                let mut prog = lower_to_cicero(&ir(p)).unwrap();
                jump_simplify(&mut prog);
                codegen(&prog).unwrap().len()
            })
            .sum();
        assert!(combined.len() < separate, "{} vs {separate}", combined.len());
    }

    #[test]
    fn acceptance_ids_survive_jump_simplification() {
        let program = lower_set(&["aa|bb", "cc"]);
        use Instruction::*;
        let ids: Vec<u16> = program
            .instructions()
            .iter()
            .filter_map(|i| match i {
                AcceptPartialId(id) => Some(*id),
                _ => None,
            })
            .collect();
        assert!(ids.contains(&0) && ids.contains(&1), "{program}");
        // Jump Simplification's acceptance duplication must have preserved
        // ids: both `aa` and `bb` branches report 0.
        assert!(ids.iter().filter(|id| **id == 0).count() >= 2, "{program}");
    }

    #[test]
    fn anchored_patterns_are_rejected() {
        let irs: Vec<Operation> = ["^abc", "xyz"].iter().map(|p| ir(p)).collect();
        let refs: Vec<&Operation> = irs.iter().collect();
        assert!(lower_multi(&refs).is_err());
    }
}
