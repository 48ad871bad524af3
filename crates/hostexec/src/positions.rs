//! The direct lowering: optimized `regex`-dialect IR to the position
//! (Glushkov) automaton, a sibling of the `cicero` lowering rather than
//! its inverse.
//!
//! One state per atom occurrence, entered on the op's own byte set
//! (`regex.match_char`'s byte, `regex.group`'s `target_chars`, the full
//! alphabet for `regex.match_any_char`), so every state keeps the
//! Glushkov property by construction and a character class is one state,
//! not a `Split` chain to merge back. Quantifiers expand by copy exactly as
//! the `cicero` lowering expands them: `min` mandatory copies, then a loop
//! (`X*`, `X+`) or a nested chain of optionals (`X{m,n}` is
//! `X…X(X(X)?)?`), so the automaton has one state per consuming
//! instruction of the ISA program and its chains stay consecutive.
//! Positions are numbered left to right in member order, after the start
//! state (0) and, for unanchored programs, the `.*` scan-loop state (1).
//!
//! One bottom-up walk computes each sub-expression's first and last
//! positions and whether it is nullable. Follow sets are dense bit rows,
//! one per state: a concatenation walks its parts right to left with the
//! set of positions that may come next (the suffix's first set) and ORs
//! it once into the row of each last position of each part, so a row is
//! ORed once per enclosing concatenation, and once per enclosing loop,
//! never once per later piece. There is no closure walk and no
//! budget on the walk itself; [`MAX_FOLLOW_EDGES`] bounds what the rows
//! hand on to factoring and the engine build.
//!
//! Acceptance follows the ISA program: the last positions of member `i`
//! carry `AcceptPartialId(i)`'s arm in a set, `AcceptPartial`'s in an
//! unanchored pattern and `Accept`'s (end of input only) in a
//! `$`-anchored one; a nullable member puts its arm on the start and
//! scan-loop states. A hand-built `regex.dollar` is the ISA's `Accept`:
//! the positions before it accept at end of input, and nothing after it
//! is reachable.

use mlir_lite::{Attribute, ByteSet, Operation};
use regex_dialect::ops::{self as rx, attrs, names};

use crate::nfa::{merge_arms, AcceptArm, Nfa};
use crate::wide::MAX_STATES;

/// The most follow edges the direct lowering hands to factoring and the
/// engine build; a denser automaton runs on the interpreter instead.
/// Position automata of real patterns have a few edges per state (1.2 on
/// the served BRILL and PROTOMATA sets), but every position of a run of
/// nullable pieces follows every later one: `(a?){512}c` has 132,356
/// edges, `(a?){721}c` is the last of that family under this cap, and the
/// ISA's 8,192-instruction wall would admit 8.4 million. 2^18 edges are
/// 1 MiB of follow lists.
pub const MAX_FOLLOW_EDGES: usize = 1 << 18;

/// What one direct lowering did, counted rather than timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lowering {
    /// States of the position automaton before factoring: the start, the
    /// scan loop and one per atom occurrence.
    pub states: usize,
    /// Follow-row ORs: at most one per last position per enclosing
    /// concatenation or loop, so linear in `states` for a given group
    /// nesting.
    pub row_ors: usize,
    /// Follow edges before factoring (the bits set across all rows).
    pub follow_edges: usize,
}

/// The position automaton of the verified `regex.root`s `members`, in
/// member order, with what building it did: member `i` accepts with
/// identifier `i` when `ids`, unidentified otherwise. `Err` carries the
/// counts of an automaton over the engine's state cap or over
/// [`MAX_FOLLOW_EDGES`], which runs on the interpreter instead.
pub(crate) fn lower(members: &[&Operation], ids: bool) -> Result<(Nfa, Lowering), Lowering> {
    let flag = |root: &Operation, key| root.attr(key).and_then(Attribute::as_bool) == Some(true);
    let scan_loop = members.iter().any(|root| flag(root, attrs::HAS_PREFIX));
    let states = members
        .iter()
        .map(|root| occurrences(root))
        .fold(1 + usize::from(scan_loop), usize::saturating_add);
    if states > MAX_STATES {
        return Err(Lowering { states, row_ors: 0, follow_edges: 0 });
    }
    let words = states.div_ceil(64);
    let mut b = Builder {
        words,
        preds: Vec::with_capacity(states),
        rows: vec![0; states * words],
        dollar: Vec::with_capacity(states),
        next: vec![0; words],
        next_bits: Vec::new(),
        span: None,
        row_ors: 0,
    };
    let mut entry = vec![b.state(ByteSet::EMPTY)];
    entry.extend(scan_loop.then(|| b.state(ByteSet::FULL)));
    let mut lasts: Vec<(Vec<u32>, AcceptArm)> = Vec::with_capacity(members.len());
    let mut entry_arms: Vec<AcceptArm> = Vec::new();
    let mut firsts: Vec<u32> = entry[1..].to_vec();
    for (i, root) in members.iter().enumerate() {
        let body = b.alternation(&root.only_region().ops);
        let bytes = if flag(root, attrs::HAS_SUFFIX) { ByteSet::FULL } else { ByteSet::EMPTY };
        let id = u16::try_from(i).expect("a program addresses fewer members than u16 counts");
        let arm = AcceptArm { id: ids.then_some(id), bytes, eoi: true };
        if body.nullable {
            entry_arms.push(arm.clone());
        }
        if body.dollar {
            entry_arms.push(END_ARM);
        }
        firsts.extend(body.first);
        lasts.push((body.last, arm));
    }
    debug_assert_eq!(b.preds.len(), states, "one state per atom occurrence");
    let mut arms: Vec<Vec<AcceptArm>> = vec![Vec::new(); states];
    for (last, arm) in lasts {
        for s in last {
            arms[s as usize].push(arm.clone());
        }
    }
    b.add_next(&firsts);
    b.or_next_into(&entry, false);
    b.clear_next();
    for &s in &entry {
        arms[s as usize].extend(entry_arms.iter().cloned());
    }
    for (state, arms) in arms.iter_mut().enumerate() {
        if b.dollar[state] {
            arms.push(END_ARM);
        }
        *arms = merge_arms(std::mem::take(arms));
    }
    let follow_edges = b.rows.iter().map(|word| word.count_ones() as usize).sum();
    let lowering = Lowering { states, row_ors: b.row_ors, follow_edges };
    if follow_edges > MAX_FOLLOW_EDGES {
        return Err(lowering);
    }
    let follow = b
        .rows
        .chunks_exact(words)
        .map(|row| {
            let mut targets = Vec::new();
            for (word, &bits) in row.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    targets.push((word * 64) as u32 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
            targets
        })
        .collect();
    Ok((Nfa { preds: b.preds, follow, arms }, lowering))
}

/// The ISA's `Accept`, which a `regex.dollar` lowers to: unidentified, and
/// firing at end of input only.
const END_ARM: AcceptArm = AcceptArm { id: None, bytes: ByteSet::EMPTY, eoi: true };

/// The atom occurrences `op` expands to (saturating): one per consuming
/// op per quantifier copy.
fn occurrences(op: &Operation) -> usize {
    if op.is(names::PIECE) {
        let (atom, quantifier) = rx::piece_parts(op);
        let copies = quantifier.map_or(1, |q| match rx::quantifier_bounds(q) {
            (min, None) => min.max(1),
            (_, Some(max)) => max,
        });
        occurrences(atom).saturating_mul(copies as usize)
    } else if op.is(names::MATCH_CHAR) || op.is(names::MATCH_ANY_CHAR) || op.is(names::GROUP) {
        1
    } else {
        // A root, sub-regex or concatenation sums its region; a dollar's
        // region-less op has none.
        op.regions()
            .iter()
            .flat_map(|region| &region.ops)
            .map(occurrences)
            .fold(0, usize::saturating_add)
    }
}

/// One sub-expression's contribution to its context.
#[derive(Default)]
struct Frag {
    /// Positions that can consume its first byte.
    first: Vec<u32>,
    /// Positions that can consume its last byte.
    last: Vec<u32>,
    /// Whether it matches the empty string.
    nullable: bool,
    /// Whether a `regex.dollar` is reachable without consuming a byte.
    dollar: bool,
}

/// The union of two disjoint position lists, copying the shorter.
fn union(mut a: Vec<u32>, mut b: Vec<u32>) -> Vec<u32> {
    if a.len() < b.len() {
        std::mem::swap(&mut a, &mut b);
    }
    a.extend(b);
    a
}

struct Builder {
    /// `u64` words per follow row.
    words: usize,
    preds: Vec<ByteSet>,
    /// Follow rows, `words` words per state.
    rows: Vec<u64>,
    /// Per state: a `regex.dollar` follows it without consuming a byte.
    dollar: Vec<bool>,
    /// The successor set being ORed into rows, and its set bits.
    next: Vec<u64>,
    next_bits: Vec<u32>,
    /// The first and last word of `next` with a bit set.
    span: Option<(usize, usize)>,
    row_ors: usize,
}

impl Builder {
    fn state(&mut self, pred: ByteSet) -> u32 {
        self.preds.push(pred);
        self.dollar.push(false);
        self.preds.len() as u32 - 1
    }

    fn add_next(&mut self, states: &[u32]) {
        for &s in states {
            let word = s as usize / 64;
            self.next[word] |= 1u64 << (s % 64);
            self.span =
                Some(self.span.map_or((word, word), |(lo, hi)| (lo.min(word), hi.max(word))));
        }
        self.next_bits.extend_from_slice(states);
    }

    fn clear_next(&mut self) {
        for &s in &self.next_bits {
            self.next[s as usize / 64] = 0;
        }
        self.next_bits.clear();
        self.span = None;
    }

    /// OR the successor set into the rows of `states`, and mark them
    /// followed by a `$` when `dollar`.
    fn or_next_into(&mut self, states: &[u32], dollar: bool) {
        if dollar {
            for &s in states {
                self.dollar[s as usize] = true;
            }
        }
        let Some((lo, hi)) = self.span else { return };
        for &s in states {
            let row = &mut self.rows[s as usize * self.words..][..self.words];
            for (to, &from) in row[lo..=hi].iter_mut().zip(&self.next[lo..=hi]) {
                *to |= from;
            }
        }
        self.row_ors += states.len();
    }

    /// One alternative per op of `alternatives` (concatenations).
    fn alternation(&mut self, alternatives: &[Operation]) -> Frag {
        let mut out = Frag::default();
        for concat in alternatives {
            let parts = concat.only_region().ops.iter().map(|piece| self.piece(piece)).collect();
            let part = self.sequence(parts);
            out.first = union(out.first, part.first);
            out.last = union(out.last, part.last);
            out.nullable |= part.nullable;
            out.dollar |= part.dollar;
        }
        out
    }

    /// `parts` in sequence. Right to left, `next` holds the first
    /// positions of the suffix after the current part, and each of the
    /// part's last positions gets it ORed into its row once.
    fn sequence(&mut self, parts: Vec<Frag>) -> Frag {
        let mut dollar = false;
        for part in parts.iter().rev() {
            self.or_next_into(&part.last, dollar);
            if !part.nullable {
                self.clear_next();
                dollar = false;
            }
            self.add_next(&part.first);
            dollar |= part.dollar;
        }
        self.clear_next();
        // First positions up to the first part that is not nullable, last
        // positions back to the last one that is not.
        let first_end = parts.iter().position(|part| !part.nullable).map_or(parts.len(), |i| i + 1);
        let last_start = parts.iter().rposition(|part| !part.nullable).unwrap_or(0);
        let mut out = Frag {
            nullable: parts.iter().all(|part| part.nullable),
            dollar: parts[..first_end].iter().any(|part| part.dollar),
            ..Frag::default()
        };
        for (i, part) in parts.into_iter().enumerate() {
            if i < first_end {
                out.first = union(out.first, part.first);
            }
            if i >= last_start {
                out.last = union(out.last, part.last);
            }
        }
        out
    }

    fn piece(&mut self, piece: &Operation) -> Frag {
        let (atom, quantifier) = rx::piece_parts(piece);
        let Some(quantifier) = quantifier else { return self.atom(atom) };
        let (min, max) = rx::quantifier_bounds(quantifier);
        // `X{m,}` keeps its last mandatory copy for the loop.
        let copies = if max.is_none() { min.saturating_sub(1) } else { min };
        let mut parts: Vec<Frag> = (0..copies).map(|_| self.atom(atom)).collect();
        match max {
            None => {
                let mut body = self.atom(atom);
                self.add_next(&body.first);
                self.or_next_into(&body.last, body.dollar);
                self.clear_next();
                body.nullable |= min == 0;
                parts.push(body);
            }
            Some(max) if max > min => {
                // `X(X(X)?)?`: the copies first, left to right, then
                // nested from the innermost out.
                let mut optionals: Vec<Frag> = (min..max).map(|_| self.atom(atom)).collect();
                let mut tail = optionals.pop().expect("max > min");
                tail.nullable = true;
                while let Some(copy) = optionals.pop() {
                    tail = self.sequence(vec![copy, tail]);
                    tail.nullable = true;
                }
                parts.push(tail);
            }
            Some(_) => {}
        }
        self.sequence(parts)
    }

    fn atom(&mut self, atom: &Operation) -> Frag {
        let pred = if atom.is(names::MATCH_CHAR) {
            ByteSet::single(
                atom.attr(attrs::TARGET_CHAR).and_then(Attribute::as_char).expect("verified"),
            )
        } else if atom.is(names::MATCH_ANY_CHAR) {
            ByteSet::FULL
        } else if atom.is(names::GROUP) {
            atom.attr(attrs::TARGET_CHARS).and_then(Attribute::as_byte_set).expect("verified")
        } else if atom.is(names::SUB_REGEX) {
            return self.alternation(&atom.only_region().ops);
        } else if atom.is(names::DOLLAR) {
            return Frag { dollar: true, ..Frag::default() };
        } else {
            panic!("unexpected regex atom {}", atom.name())
        };
        let state = self.state(pred);
        Frag { first: vec![state], last: vec![state], nullable: false, dollar: false }
    }
}
