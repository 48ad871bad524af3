//! Premature lowering: dynamic AST → instructions mapped to memory.
//!
//! This is the old compiler's single IR (§2.1): "the mapping of basic
//! blocks to instruction memory and generation of control instructions"
//! happens here, immediately after parsing. Control-flow operands are
//! **absolute addresses** from the start, so any later transformation must
//! re-patch them — the premature-lowering cost the paper contrasts with
//! the new compiler's symbolic `cicero` dialect.
//!
//! The emitted layout matches the new compiler's unoptimized output
//! instruction-for-instruction (Listing 2, left column), so compiler
//! comparisons isolate the *optimizations*, not the baseline emission.
//!
//! Alongside the code, emission records the alternation metadata
//! ([`AltMeta`]) that [`crate::restructure`] needs to rebuild split chains
//! into balanced trees.

use crate::value::Value;
use crate::LegacyError;

/// A mapped program: dict-instructions plus restructuring metadata.
#[derive(Debug, Clone)]
pub struct MappedProgram {
    /// The instruction list; each entry is `{"op": Str, "arg": Int}`.
    pub code: Vec<Value>,
    /// Restructuring metadata.
    pub meta: EmitMeta,
}

/// Metadata describing the emitted control structure.
#[derive(Debug, Clone, Default)]
pub struct EmitMeta {
    /// Whether the implicit `.*` prefix loop occupies addresses 0..=2.
    pub has_prefix: bool,
    /// Whether acceptance is partial (`AcceptPartial`) or exact.
    pub accept_partial: bool,
    /// Addresses of the root alternation's chain `SPLIT`s (empty when the
    /// root has a single alternative).
    pub root_splits: Vec<usize>,
    /// The root alternation's branches, in source order.
    pub root_branches: Vec<BranchMeta>,
    /// Address of the root acceptance op (the shared join).
    pub join_addr: usize,
    /// All nested alternations, indexed by the `nested` field of
    /// [`BranchMeta`].
    pub alts: Vec<AltMeta>,
}

/// One alternation's mapped structure.
#[derive(Debug, Clone)]
pub struct AltMeta {
    /// Addresses of the chain `SPLIT`s.
    pub splits: Vec<usize>,
    /// The branch code ranges.
    pub branches: Vec<BranchMeta>,
    /// Address of the join (a `JMP` for flattenable nested alternations).
    pub join: usize,
}

/// One branch of an alternation.
#[derive(Debug, Clone)]
pub struct BranchMeta {
    /// Half-open code range `[start, end)`, including the trailing jump to
    /// the join (when one exists).
    pub range: (usize, usize),
    /// When the branch body is exactly one unquantified group whose
    /// alternation has ≥2 branches, the index of that alternation in
    /// [`EmitMeta::alts`] — such branches flatten during restructuring.
    pub nested: Option<usize>,
}

/// Emit a parsed dynamic AST ([`crate::parser::parse`]) into mapped code.
///
/// # Errors
///
/// Returns [`LegacyError`] on malformed AST nodes (which a successful
/// parse never produces).
pub fn emit(root: &Value) -> Result<MappedProgram, LegacyError> {
    if root.node_type() != Some("root") {
        return Err(LegacyError::new("expected a root node"));
    }
    let has_prefix = root
        .get("has_prefix")
        .and_then(Value::as_bool)
        .ok_or_else(|| LegacyError::new("root lacks has_prefix"))?;
    let has_suffix = root
        .get("has_suffix")
        .and_then(Value::as_bool)
        .ok_or_else(|| LegacyError::new("root lacks has_suffix"))?;
    let alternatives = root
        .get("alternatives")
        .and_then(Value::as_list)
        .ok_or_else(|| LegacyError::new("root lacks alternatives"))?;

    // Refuse before expanding: the emitter recurses once per emitted
    // piece copy, so `(a{1024}){1024}` would overflow the stack long
    // before the address space check in `into_program` could run.
    let size = expanded_size(has_prefix, alternatives)?;
    let slack = 1 + flattenable_groups(alternatives);
    if size > ADDRESS_SPACE + slack {
        return Err(LegacyError::new(format!(
            "program exceeds the {ADDRESS_SPACE}-instruction address space: \
             it expands to {size} instructions"
        )));
    }

    let mut e = Emitter::new();
    if has_prefix {
        // L: SPLIT @body; MATCH_ANY; JMP @L (Listing 2).
        let body = e.fresh();
        e.emit_branchy("SPLIT", body);
        e.emit_plain("MATCH_ANY");
        let back = e.fresh();
        e.place_at(back, 0);
        e.emit_branchy("JMP", back);
        e.place(body);
    }
    let accept_op = if has_suffix { "ACCEPT_PARTIAL" } else { "ACCEPT" };
    let body_start = e.code.len();
    let root_nested = emit_branches(
        &mut e,
        alternatives,
        BranchStyle::Root,
        Next::Inline(Box::new(move |e: &mut Emitter| {
            e.emit_plain(accept_op);
        })),
    )?;

    let (root_splits, root_branches, join_addr) = match root_nested {
        BranchKind::Alt(index) => {
            let alt = &e.alts[index];
            (alt.splits.clone(), alt.branches.clone(), alt.join)
        }
        // Single plain alternative: the acceptance is the last instruction.
        BranchKind::Plain => {
            let join_addr = e.code.len() - 1;
            (
                Vec::new(),
                vec![BranchMeta { range: (body_start, join_addr), nested: None }],
                join_addr,
            )
        }
        // Single pure-group alternative: the inner alternation's join *is*
        // the acceptance (it was emitted by our continuation).
        BranchKind::PureNested(index) => {
            let join_addr = e.alts[index].join;
            (
                Vec::new(),
                vec![BranchMeta { range: (body_start, join_addr), nested: Some(index) }],
                join_addr,
            )
        }
    };

    let code = e.resolve()?;
    Ok(MappedProgram {
        code,
        meta: EmitMeta {
            has_prefix,
            accept_partial: has_suffix,
            root_splits,
            root_branches,
            join_addr,
            alts: e.alts,
        },
    })
}

/// The ISA's address space: the most instructions a program may hold.
const ADDRESS_SPACE: usize = cicero_isa::MAX_OPERAND as usize + 1;

/// The exact number of instructions [`emit`] produces for a root with
/// `alternatives`, saturating, in time linear in the AST: a quantifier
/// multiplies its atom's size instead of expanding it. Every
/// continuation is resolved exactly once, so a construct's size is its
/// own ops plus one `JMP` per branch it ends with a jump to a join.
fn expanded_size(has_prefix: bool, alternatives: &[Value]) -> Result<usize, LegacyError> {
    // The `.*` loop, then the root alternation and its acceptance.
    let prefix = if has_prefix { 3 } else { 0 };
    Ok(alternation_size(alternatives)?.saturating_add(prefix + 1))
}

fn alternation_size(branches: &[Value]) -> Result<usize, LegacyError> {
    if let [only] = branches {
        return concat_size(only);
    }
    // One SPLIT per branch but the last; every branch ends in a JMP.
    let mut size = branches.len().saturating_sub(1);
    for branch in branches {
        size = size.saturating_add(concat_size(branch)?).saturating_add(1);
    }
    Ok(size)
}

fn concat_size(concat: &Value) -> Result<usize, LegacyError> {
    let pieces = concat
        .get("pieces")
        .and_then(Value::as_list)
        .ok_or_else(|| LegacyError::new("concat lacks pieces"))?;
    let mut size = 0usize;
    for piece in pieces {
        let atom = piece.get("atom").ok_or_else(|| LegacyError::new("piece lacks atom"))?;
        let body = atom_size(atom)?;
        let copies = match piece.get("min").and_then(Value::as_int) {
            None => body,
            Some(min) => {
                let max = piece
                    .get("max")
                    .and_then(Value::as_int)
                    .ok_or_else(|| LegacyError::new("piece lacks max"))?;
                quantified_size(body, min, max)
            }
        };
        size = size.saturating_add(copies);
    }
    Ok(size)
}

/// `emit_quantified`'s shapes: `min` copies, then a `SPLIT` back for an
/// unbounded `+`, a `SPLIT`/`JMP` loop for `*`, or one `SPLIT` per
/// optional copy up to `max` (`-1` is unbounded).
fn quantified_size(body: usize, min: i64, max: i64) -> usize {
    let count = |n: i64| usize::try_from(n).unwrap_or(0);
    let required = body.saturating_mul(count(min));
    match max {
        -1 if min == 0 => body.saturating_add(2),
        -1 => required.saturating_add(1),
        max => required.saturating_add(body.saturating_add(1).saturating_mul(count(max - min))),
    }
}

fn atom_size(atom: &Value) -> Result<usize, LegacyError> {
    match atom.node_type() {
        Some("char" | "any") => Ok(1),
        Some("class") => {
            let chars = atom
                .get("chars")
                .and_then(Value::as_list)
                .ok_or_else(|| LegacyError::new("class lacks chars"))?;
            let mut in_set = [false; 256];
            for c in chars.iter().filter_map(Value::as_int) {
                in_set[c as usize & 0xff] = true;
            }
            // `emit_class`'s choice: a split tree of `3m − 1` ops, or one
            // NOT_MATCH per byte outside the class plus a MATCH_ANY.
            let members = chars.len();
            let complement = in_set.iter().filter(|&&member| !member).count();
            Ok(if 3 * members <= complement + 1 || complement == 0 {
                match members {
                    0 | 1 => members,
                    m => 3 * m - 1,
                }
            } else {
                complement + 1
            })
        }
        Some("group") => {
            let alternatives = atom
                .get("alternatives")
                .and_then(Value::as_list)
                .ok_or_else(|| LegacyError::new("group lacks alternatives"))?;
            alternation_size(alternatives)
        }
        other => Err(LegacyError::new(format!("unknown atom type {other:?}"))),
    }
}

/// How many groups with two or more alternatives the AST holds. Code
/// Restructuring drops the first root leaf's jump and the join jump of
/// each group it flattens into the root, and nothing else, so a program
/// that expands to more than this past the address space cannot fit.
fn flattenable_groups(alternatives: &[Value]) -> usize {
    let mut groups = 0;
    let mut stack: Vec<&Value> = alternatives.iter().collect();
    while let Some(node) = stack.pop() {
        for piece in node.get("pieces").and_then(Value::as_list).unwrap_or_default() {
            let Some(atom) = piece.get("atom") else { continue };
            if let Some(inner) = atom.get("alternatives").and_then(Value::as_list) {
                groups += usize::from(inner.len() >= 2);
                stack.extend(inner);
            }
        }
    }
    groups
}

/// What a concatenation's emission turned out to be, for metadata.
enum BranchKind {
    /// Ordinary code.
    Plain,
    /// The concatenation was exactly one unquantified multi-branch group:
    /// its code *is* alternation `alts[index]`.
    PureNested(usize),
    /// Used for the root: `emit_branches` created alternation
    /// `alts[index]` directly.
    Alt(usize),
}

enum Next<'a> {
    Inline(Box<dyn FnOnce(&mut Emitter) + 'a>),
    Goto(usize),
}

impl<'a> Next<'a> {
    fn resolve(self, e: &mut Emitter) {
        match self {
            Next::Inline(f) => f(e),
            Next::Goto(label) => e.emit_branchy("JMP", label),
        }
    }
}

struct Emitter {
    code: Vec<Value>,
    /// Labels: `labels[id]` is the resolved address once placed.
    labels: Vec<Option<usize>>,
    /// Instructions whose `arg` is a label id awaiting resolution.
    patches: Vec<(usize, usize)>,
    alts: Vec<AltMeta>,
}

impl Emitter {
    fn new() -> Emitter {
        Emitter { code: Vec::new(), labels: Vec::new(), patches: Vec::new(), alts: Vec::new() }
    }

    fn fresh(&mut self) -> usize {
        self.labels.push(None);
        self.labels.len() - 1
    }

    /// Place a label at the current end of code.
    fn place(&mut self, label: usize) {
        self.place_at(label, self.code.len());
    }

    fn place_at(&mut self, label: usize, address: usize) {
        debug_assert!(self.labels[label].is_none(), "label placed twice");
        self.labels[label] = Some(address);
    }

    fn emit_plain(&mut self, op: &str) {
        let mut ins = Value::dict();
        ins.set("op", Value::Str(op.to_owned()));
        self.code.push(ins);
    }

    fn emit_char_op(&mut self, op: &str, c: i64) {
        let mut ins = Value::dict();
        ins.set("op", Value::Str(op.to_owned()));
        ins.set("arg", Value::Int(c));
        self.code.push(ins);
    }

    /// Emit a SPLIT/JMP whose target is the given label.
    fn emit_branchy(&mut self, op: &str, label: usize) {
        let mut ins = Value::dict();
        ins.set("op", Value::Str(op.to_owned()));
        ins.set("arg", Value::Int(-1));
        self.patches.push((self.code.len(), label));
        self.code.push(ins);
    }

    /// Resolve label patches into absolute addresses.
    fn resolve(&mut self) -> Result<Vec<Value>, LegacyError> {
        for (address, label) in self.patches.drain(..) {
            let target = self.labels[label]
                .ok_or_else(|| LegacyError::new(format!("unplaced label {label}")))?;
            self.code[address].set("arg", Value::Int(target as i64));
        }
        Ok(std::mem::take(&mut self.code))
    }
}

/// Layout discipline for an alternation's shared continuation (mirrors
/// the new compiler's lowering exactly, so unoptimized outputs match).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BranchStyle {
    /// Listing-2 root layout: branch 0, continuation, branches 1..n-1.
    Root,
    /// Classic layout: all branches (each ending in a jump to the join),
    /// then the continuation. Keeps nested constructs contiguous, which
    /// Code Restructuring relies on.
    Inner,
}

/// Emit an alternation.
fn emit_branches<'a>(
    e: &mut Emitter,
    branches: &'a [Value],
    style: BranchStyle,
    next: Next<'a>,
) -> Result<BranchKind, LegacyError> {
    if branches.len() == 1 {
        return emit_concat(e, &branches[0], next);
    }
    let join = e.fresh();
    let mut splits = Vec::new();
    let mut metas = Vec::with_capacity(branches.len());
    match style {
        BranchStyle::Root => {
            splits.push(e.code.len());
            let rest = e.fresh();
            e.emit_branchy("SPLIT", rest);
            let start = e.code.len();
            let nested0 = emit_concat(e, &branches[0], Next::Goto(join))?;
            metas.push(BranchMeta { range: (start, e.code.len()), nested: nested0.nested_index() });
            e.place(join);
            next.resolve(e);
            e.place(rest);
            for (i, branch) in branches.iter().enumerate().skip(1) {
                if i + 1 < branches.len() {
                    let after = e.fresh();
                    splits.push(e.code.len());
                    e.emit_branchy("SPLIT", after);
                    let start = e.code.len();
                    let nested = emit_concat(e, branch, Next::Goto(join))?;
                    metas.push(BranchMeta {
                        range: (start, e.code.len()),
                        nested: nested.nested_index(),
                    });
                    e.place(after);
                } else {
                    let start = e.code.len();
                    let nested = emit_concat(e, branch, Next::Goto(join))?;
                    metas.push(BranchMeta {
                        range: (start, e.code.len()),
                        nested: nested.nested_index(),
                    });
                }
            }
        }
        BranchStyle::Inner => {
            for (i, branch) in branches.iter().enumerate() {
                if i + 1 < branches.len() {
                    let after = e.fresh();
                    splits.push(e.code.len());
                    e.emit_branchy("SPLIT", after);
                    let start = e.code.len();
                    let nested = emit_concat(e, branch, Next::Goto(join))?;
                    metas.push(BranchMeta {
                        range: (start, e.code.len()),
                        nested: nested.nested_index(),
                    });
                    e.place(after);
                } else {
                    let start = e.code.len();
                    let nested = emit_concat(e, branch, Next::Goto(join))?;
                    metas.push(BranchMeta {
                        range: (start, e.code.len()),
                        nested: nested.nested_index(),
                    });
                }
            }
            e.place(join);
            next.resolve(e);
        }
    }
    let join_address = e.labels[join].expect("join placed");
    e.alts.push(AltMeta { splits, branches: metas, join: join_address });
    Ok(BranchKind::Alt(e.alts.len() - 1))
}

impl BranchKind {
    fn nested_index(&self) -> Option<usize> {
        match self {
            BranchKind::Alt(i) | BranchKind::PureNested(i) => Some(*i),
            BranchKind::Plain => None,
        }
    }
}

fn emit_concat<'a>(
    e: &mut Emitter,
    concat: &'a Value,
    next: Next<'a>,
) -> Result<BranchKind, LegacyError> {
    let pieces = concat
        .get("pieces")
        .and_then(Value::as_list)
        .ok_or_else(|| LegacyError::new("concat lacks pieces"))?;
    // Pure-nested detection for restructuring metadata: exactly one
    // unquantified group piece with a multi-branch alternation.
    if pieces.len() == 1 && pieces[0].get("min").is_none() {
        if let Some(atom) = pieces[0].get("atom") {
            if atom.node_type() == Some("group") {
                let alternatives = atom
                    .get("alternatives")
                    .and_then(Value::as_list)
                    .ok_or_else(|| LegacyError::new("group lacks alternatives"))?;
                if alternatives.len() >= 2 {
                    return emit_branches(e, alternatives, BranchStyle::Inner, next).map(|kind| {
                        match kind {
                            BranchKind::Alt(i) => BranchKind::PureNested(i),
                            other => other,
                        }
                    });
                }
            }
        }
    }
    emit_pieces(e, pieces, next)?;
    Ok(BranchKind::Plain)
}

fn emit_pieces<'a>(
    e: &mut Emitter,
    pieces: &'a [Value],
    next: Next<'a>,
) -> Result<(), LegacyError> {
    match pieces.split_first() {
        None => {
            next.resolve(e);
            Ok(())
        }
        Some((first, rest)) => {
            let continuation = Next::Inline(Box::new(move |e: &mut Emitter| {
                emit_pieces(e, rest, next).expect("piece emission cannot fail after the first");
            }));
            emit_piece(e, first, continuation)
        }
    }
}

fn emit_piece<'a>(e: &mut Emitter, piece: &'a Value, next: Next<'a>) -> Result<(), LegacyError> {
    let atom = piece.get("atom").ok_or_else(|| LegacyError::new("piece lacks atom"))?;
    match piece.get("min").and_then(Value::as_int) {
        None => emit_atom(e, atom, next),
        Some(min) => {
            let max = piece
                .get("max")
                .and_then(Value::as_int)
                .ok_or_else(|| LegacyError::new("piece lacks max"))?;
            emit_quantified(e, atom, min, max, next);
            Ok(())
        }
    }
}

/// Quantifier expansion, mirroring the new lowering's shapes exactly.
fn emit_quantified<'a>(e: &mut Emitter, atom: &'a Value, min: i64, max: i64, next: Next<'a>) {
    if min > 0 {
        if max == -1 && min == 1 {
            let back = e.fresh();
            e.place(back);
            let after = Next::Inline(Box::new(move |e: &mut Emitter| {
                e.emit_branchy("SPLIT", back);
                next.resolve(e);
            }));
            emit_atom(e, atom, after).expect("validated atom");
            return;
        }
        let continuation = Next::Inline(Box::new(move |e: &mut Emitter| {
            emit_quantified(e, atom, min - 1, if max == -1 { -1 } else { max - 1 }, next);
        }));
        emit_atom(e, atom, continuation).expect("validated atom");
        return;
    }
    match max {
        -1 => {
            let head = e.fresh();
            let exit = e.fresh();
            e.place(head);
            e.emit_branchy("SPLIT", exit);
            emit_atom(e, atom, Next::Goto(head)).expect("validated atom");
            e.place(exit);
            next.resolve(e);
        }
        0 => next.resolve(e),
        k => {
            let exit = e.fresh();
            emit_optional_chain(e, atom, k, exit, next);
        }
    }
}

fn emit_optional_chain<'a>(
    e: &mut Emitter,
    atom: &'a Value,
    remaining: i64,
    exit: usize,
    next: Next<'a>,
) {
    if remaining == 0 {
        e.place(exit);
        next.resolve(e);
        return;
    }
    e.emit_branchy("SPLIT", exit);
    let continuation = Next::Inline(Box::new(move |e: &mut Emitter| {
        emit_optional_chain(e, atom, remaining - 1, exit, next);
    }));
    emit_atom(e, atom, continuation).expect("validated atom");
}

fn emit_atom<'a>(e: &mut Emitter, atom: &'a Value, next: Next<'a>) -> Result<(), LegacyError> {
    match atom.node_type() {
        Some("char") => {
            let c = atom
                .get("value")
                .and_then(Value::as_int)
                .ok_or_else(|| LegacyError::new("char lacks value"))?;
            e.emit_char_op("MATCH", c);
            next.resolve(e);
            Ok(())
        }
        Some("any") => {
            e.emit_plain("MATCH_ANY");
            next.resolve(e);
            Ok(())
        }
        Some("class") => {
            let chars = atom
                .get("chars")
                .and_then(Value::as_list)
                .ok_or_else(|| LegacyError::new("class lacks chars"))?;
            emit_class(e, chars, next)
        }
        Some("group") => {
            let alternatives = atom
                .get("alternatives")
                .and_then(Value::as_list)
                .ok_or_else(|| LegacyError::new("group lacks alternatives"))?;
            emit_branches(e, alternatives, BranchStyle::Inner, next)?;
            Ok(())
        }
        other => Err(LegacyError::new(format!("unknown atom type {other:?}"))),
    }
}

/// Character class: same encoding choice as the new compiler (§3.3).
fn emit_class<'a>(e: &mut Emitter, chars: &'a [Value], next: Next<'a>) -> Result<(), LegacyError> {
    let members: Vec<i64> = chars.iter().filter_map(Value::as_int).collect();
    if members.len() != chars.len() {
        return Err(LegacyError::new("class member is not an int"));
    }
    let mut in_set = [false; 256];
    for m in &members {
        in_set[*m as usize] = true;
    }
    let complement: Vec<i64> = (0..256).filter(|i| !in_set[*i as usize]).collect();
    let positive_cost = 3 * members.len();
    let negated_cost = complement.len() + 1;
    if positive_cost <= negated_cost || complement.is_empty() {
        if members.len() == 1 {
            e.emit_char_op("MATCH", members[0]);
            next.resolve(e);
            return Ok(());
        }
        // Positive split tree in the classic (Inner) layout. Classes are
        // split chains like any alternation, so they get AltMeta too and
        // participate in Code Restructuring's balancing.
        let join = e.fresh();
        let mut splits = Vec::new();
        let mut metas = Vec::with_capacity(members.len());
        for (i, m) in members.iter().enumerate() {
            if i + 1 < members.len() {
                let after = e.fresh();
                splits.push(e.code.len());
                e.emit_branchy("SPLIT", after);
                let start = e.code.len();
                e.emit_char_op("MATCH", *m);
                e.emit_branchy("JMP", join);
                metas.push(BranchMeta { range: (start, e.code.len()), nested: None });
                e.place(after);
            } else {
                let start = e.code.len();
                e.emit_char_op("MATCH", *m);
                e.emit_branchy("JMP", join);
                metas.push(BranchMeta { range: (start, e.code.len()), nested: None });
            }
        }
        e.place(join);
        let join_address = e.labels[join].expect("join placed");
        e.alts.push(AltMeta { splits, branches: metas, join: join_address });
        next.resolve(e);
    } else {
        for c in complement {
            e.emit_char_op("NOT_MATCH", c);
        }
        e.emit_plain("MATCH_ANY");
        next.resolve(e);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;

    fn emit_pattern(pattern: &str) -> MappedProgram {
        emit(&parser::parse(pattern).unwrap()).unwrap()
    }

    #[test]
    fn listing2_addresses() {
        let mapped = emit_pattern("ab|cd");
        let ops: Vec<(&str, Option<i64>)> = mapped
            .code
            .iter()
            .map(|i| {
                (i.get("op").and_then(Value::as_str).unwrap(), i.get("arg").and_then(Value::as_int))
            })
            .collect();
        assert_eq!(
            ops,
            vec![
                ("SPLIT", Some(3)),
                ("MATCH_ANY", None),
                ("JMP", Some(0)),
                ("SPLIT", Some(8)),
                ("MATCH", Some(97)),
                ("MATCH", Some(98)),
                ("JMP", Some(7)),
                ("ACCEPT_PARTIAL", None),
                ("MATCH", Some(99)),
                ("MATCH", Some(100)),
                ("JMP", Some(7)),
            ]
        );
    }

    #[test]
    fn metadata_records_root_alternation() {
        let mapped = emit_pattern("ab|cd");
        let meta = &mapped.meta;
        assert!(meta.has_prefix);
        assert!(meta.accept_partial);
        assert_eq!(meta.join_addr, 7);
        assert_eq!(meta.root_splits, vec![3]);
        assert_eq!(meta.root_branches.len(), 2);
        assert_eq!(meta.root_branches[0].range, (4, 7));
        assert_eq!(meta.root_branches[1].range, (8, 11));
    }

    #[test]
    fn pure_nested_groups_are_flagged() {
        let mapped = emit_pattern("^(a|(b|(c|d)))$");
        assert_eq!(mapped.meta.root_branches.len(), 1);
        let nested = mapped.meta.root_branches[0].nested;
        assert!(nested.is_some(), "{:?}", mapped.meta);
        let alt = &mapped.meta.alts[nested.unwrap()];
        assert_eq!(alt.branches.len(), 2);
        assert!(alt.branches[1].nested.is_some(), "inner (b|(c|d)) is pure too");
    }

    #[test]
    fn quantified_group_is_not_pure() {
        let mapped = emit_pattern("^(a|b)+$");
        assert_eq!(mapped.meta.root_branches[0].nested, None);
    }

    #[test]
    fn the_size_bound_is_the_emitted_length() {
        let patterns = [
            "ab|cd",
            "abc",
            "^(a|(b|(c|d)))$",
            "^(a|b)+$",
            "x*y+z?",
            "a{3}b{2,5}c{0,4}d{2,}e{0,}",
            "(ab|cd){2,3}[xyz]",
            "[^a]b[^abc]|[a-z]{2}",
            "[a-f0-9]+\\.(com|org)?",
            "(a{10}){7}|b.{20}c",
            "((a|b)c|d)*e",
        ];
        for pattern in patterns {
            let ast = parser::parse(pattern).unwrap();
            let alternatives = ast.get("alternatives").and_then(Value::as_list).unwrap();
            let has_prefix = ast.get("has_prefix").and_then(Value::as_bool).unwrap();
            let size = expanded_size(has_prefix, alternatives).unwrap();
            let mut mapped = emit_pattern(pattern);
            assert_eq!(size, mapped.code.len(), "{pattern}");
            // Restructuring shrinks a program by no more than the slack.
            crate::restructure::code_restructuring(&mut mapped).unwrap();
            let slack = 1 + flattenable_groups(alternatives);
            assert!(mapped.code.len() + slack >= size, "{pattern}: {}", mapped.code.len());
        }
    }

    #[test]
    fn a_program_past_the_address_space_is_refused_before_it_expands() {
        let err = emit(&parser::parse("(a{1024}){1024}").unwrap()).unwrap_err();
        assert!(err.message.contains("8192-instruction address space"), "{err}");
        assert!(err.message.contains("1048580"), "{err}");
        // Four past the wall is refused too.
        assert!(emit(&parser::parse("(a{1024}){8}").unwrap()).is_err());
    }

    #[test]
    fn single_alternative_root() {
        let mapped = emit_pattern("abc");
        assert!(mapped.meta.root_splits.is_empty());
        assert_eq!(mapped.meta.root_branches.len(), 1);
        // prefix(3) + 3 matches, acceptance at 6.
        assert_eq!(mapped.meta.root_branches[0].range, (3, 6));
        assert_eq!(mapped.meta.join_addr, 6);
    }
}
